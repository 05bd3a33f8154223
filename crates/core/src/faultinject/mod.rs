//! Deterministic fault injection at every stage boundary.
//!
//! The telemetry chaos engine degrades the *input* feed; this module
//! degrades the *pipeline itself*. A [`FaultConfig`] names injection sites
//! (one per stage boundary — see [`InjectionSite`]) and attaches rules to
//! them: fire with a probability, every N-th passage, exactly once, or on
//! every passage after a warm-up. A firing rule raises a
//! [`SkyNetError`](crate::error::SkyNetError)-style error at the site,
//! panics (to exercise the `catch_unwind` supervisors), or injects latency.
//!
//! Everything is driven by [`ChaCha8Rng`] streams seeded from
//! `(config seed, site, lane)`, so a chaos run is a pure function of the
//! seed and the input feed: the same run replays byte-identically, letting
//! CI assert *exact* supervisor / shed / dead-letter / metrics behaviour
//! under each failure mix instead of "didn't crash". Decision state lives
//! in the shared [`FaultPlane`], not in the per-worker [`FaultArm`] handle,
//! so a restarted worker re-arms mid-stream without rewinding the decision
//! stream (a `once` rule stays one-shot across restarts).
//!
//! When injection is disabled ([`FaultConfig::default`]) no plane is
//! built and every site check is an `Option::None` test the optimizer
//! folds away — the disabled path costs nothing measurable (see the
//! `faultinject` bench).

use crate::obs::{Counter, Observability, Stage, StageTracer};
use parking_lot::Mutex;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use skynet_model::{SimTime, TraceId};
use std::collections::HashMap;
use std::sync::Arc;

mod analysis;

pub use analysis::DegradationReport;

/// A named stage boundary where faults can be injected. One site wraps
/// each hand-off in the pipeline, batch and streaming alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum InjectionSite {
    /// The ingestion guard's front door: an alert offered for admission.
    GuardOffer,
    /// Structural/topological/temporal validation inside the guard.
    GuardValidate,
    /// Syslog classification in the preprocessor.
    PreprocessClassify,
    /// Duplicate-consolidation in the preprocessor.
    PreprocessConsolidate,
    /// Routing a released alert to its shard.
    ShardRoute,
    /// A per-shard locate worker accepting a structured alert.
    LocateWorker,
    /// Building the reachability matrix for an incident.
    MatrixBuild,
    /// Evaluating (scoring + zooming) a completed incident.
    Evaluate,
    /// Matching a scored incident against the SOP rulebook.
    SopSelect,
    /// Appending an ingested record to the serving layer's write-ahead log.
    WalAppend,
    /// Writing a service snapshot to disk.
    SnapshotWrite,
}

impl InjectionSite {
    /// Every site, in pipeline order.
    pub const ALL: [InjectionSite; 11] = [
        InjectionSite::GuardOffer,
        InjectionSite::GuardValidate,
        InjectionSite::PreprocessClassify,
        InjectionSite::PreprocessConsolidate,
        InjectionSite::ShardRoute,
        InjectionSite::LocateWorker,
        InjectionSite::MatrixBuild,
        InjectionSite::Evaluate,
        InjectionSite::SopSelect,
        InjectionSite::WalAppend,
        InjectionSite::SnapshotWrite,
    ];

    /// Stable metric/display label for the site.
    pub fn label(&self) -> &'static str {
        match self {
            InjectionSite::GuardOffer => "guard-offer",
            InjectionSite::GuardValidate => "guard-validate",
            InjectionSite::PreprocessClassify => "preprocess-classify",
            InjectionSite::PreprocessConsolidate => "preprocess-consolidate",
            InjectionSite::ShardRoute => "shard-route",
            InjectionSite::LocateWorker => "locate-worker",
            InjectionSite::MatrixBuild => "matrix-build",
            InjectionSite::Evaluate => "evaluate",
            InjectionSite::SopSelect => "sop-select",
            InjectionSite::WalAppend => "wal-append",
            InjectionSite::SnapshotWrite => "snapshot-write",
        }
    }

    /// Position in [`InjectionSite::ALL`] (used for stable sort orders).
    pub fn index(&self) -> usize {
        InjectionSite::ALL
            .iter()
            .position(|s| s == self)
            .expect("every site is in ALL")
    }
}

impl std::fmt::Display for InjectionSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What a firing rule does to the stage passage it intercepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultAction {
    /// Raise the site's error path (reject / skip / degrade — see
    /// [`FaultDisposition`] for the per-site meaning).
    Error,
    /// Panic with a [`FaultPanic`] payload, exercising the supervisor.
    Panic,
    /// Sleep this many milliseconds, then proceed normally.
    Latency(u64),
}

impl FaultAction {
    /// Stable display label for the action.
    pub fn label(&self) -> &'static str {
        match self {
            FaultAction::Error => "error",
            FaultAction::Panic => "panic",
            FaultAction::Latency(_) => "latency",
        }
    }
}

/// When a rule fires, relative to the stream of checks its site observes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultTrigger {
    /// Fire independently on each check with this probability. Draws are
    /// taken from the site's seeded stream on *every* check — even when an
    /// earlier rule already fired — so rule order never shifts the stream.
    Probability(f64),
    /// Fire on every N-th check (1-based: `Every(3)` fires on checks
    /// 3, 6, 9, …).
    Every(u64),
    /// Fire exactly once, on the N-th check (1-based).
    Once(u64),
    /// Fire on every check after the N-th (`After(5)` fires from check 6).
    After(u64),
}

/// One injection rule: a site, a trigger, an action.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultRule {
    /// Where the rule applies.
    pub site: InjectionSite,
    /// When it fires.
    pub trigger: FaultTrigger,
    /// What it does.
    pub action: FaultAction,
}

impl FaultRule {
    /// Fires with probability `p` on each check.
    pub fn probability(site: InjectionSite, p: f64, action: FaultAction) -> Self {
        FaultRule {
            site,
            trigger: FaultTrigger::Probability(p),
            action,
        }
    }

    /// Fires on every `n`-th check.
    pub fn every(site: InjectionSite, n: u64, action: FaultAction) -> Self {
        FaultRule {
            site,
            trigger: FaultTrigger::Every(n),
            action,
        }
    }

    /// Fires exactly once, on the `n`-th check.
    pub fn once(site: InjectionSite, n: u64, action: FaultAction) -> Self {
        FaultRule {
            site,
            trigger: FaultTrigger::Once(n),
            action,
        }
    }

    /// Fires on every check after the `n`-th.
    pub fn after(site: InjectionSite, n: u64, action: FaultAction) -> Self {
        FaultRule {
            site,
            trigger: FaultTrigger::After(n),
            action,
        }
    }
}

/// Fault-injection policy: the builder arm that switches the subsystem on.
///
/// Disabled by default; [`FaultConfig::default`] injects nothing and the
/// pipeline skips plane construction entirely.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct FaultConfig {
    /// Master switch. `false` (the default) compiles every site check down
    /// to an `Option::None` test.
    pub enabled: bool,
    /// Seed for the per-site decision streams. The same seed, rules and
    /// input feed replay byte-identically.
    pub seed: u64,
    /// The rules. A site with no rules is never armed.
    pub rules: Vec<FaultRule>,
}

impl FaultConfig {
    /// An enabled, empty policy with this seed; add rules with
    /// [`FaultConfig::with_rule`].
    pub fn seeded(seed: u64) -> Self {
        FaultConfig {
            enabled: true,
            seed,
            rules: Vec::new(),
        }
    }

    /// Sets the decision-stream seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Appends a rule (rules for one site are evaluated in insertion
    /// order; the first that fires wins).
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Flips the master switch.
    pub fn with_enabled(mut self, enabled: bool) -> Self {
        self.enabled = enabled;
        self
    }

    /// True when the policy can actually inject something.
    pub fn is_active(&self) -> bool {
        self.enabled && !self.rules.is_empty()
    }
}

/// What became of the stage passage a fault intercepted — the per-site
/// meaning of [`FaultAction::Error`], plus the action-level outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultDisposition {
    /// The alert was rejected and preserved in the dead-letter queue.
    DeadLettered,
    /// Classification failed; the alert proceeded as `Unclassified`.
    Unclassified,
    /// Consolidation was bypassed; the observation was emitted directly.
    ConsolidationBypassed,
    /// Routing failed; the alert took the fallback shard.
    Rerouted,
    /// The matrix build was skipped; zoom ran against an empty matrix.
    MatrixSkipped,
    /// Zoom was abandoned; the incident kept its root location unrefined.
    ZoomDegraded,
    /// SOP matching was skipped; the incident shipped without a plan.
    SopSkipped,
    /// The WAL append was rejected; the record was neither persisted nor
    /// acknowledged, so the sender must retry (nothing was half-written).
    WalRejected,
    /// The snapshot write was skipped; the previous snapshot (if any)
    /// remains intact and restore falls back to a longer WAL replay.
    SnapshotSkipped,
    /// The worker panicked; whoever catches it restarts the worker
    /// (streaming) or resumes it behind the alert in flight (batch, serve).
    Panicked,
    /// The passage was delayed, then proceeded normally.
    Delayed,
}

impl FaultDisposition {
    /// Stable display label.
    pub fn label(&self) -> &'static str {
        match self {
            FaultDisposition::DeadLettered => "dead-lettered",
            FaultDisposition::Unclassified => "unclassified",
            FaultDisposition::ConsolidationBypassed => "consolidation-bypassed",
            FaultDisposition::Rerouted => "rerouted",
            FaultDisposition::MatrixSkipped => "matrix-skipped",
            FaultDisposition::ZoomDegraded => "zoom-degraded",
            FaultDisposition::SopSkipped => "sop-skipped",
            FaultDisposition::WalRejected => "wal-rejected",
            FaultDisposition::SnapshotSkipped => "snapshot-skipped",
            FaultDisposition::Panicked => "panicked",
            FaultDisposition::Delayed => "delayed",
        }
    }
}

/// Maps a (site, action) pair onto what the pipeline actually does when
/// the rule fires there.
pub fn disposition(site: InjectionSite, action: FaultAction) -> FaultDisposition {
    match action {
        FaultAction::Panic => FaultDisposition::Panicked,
        FaultAction::Latency(_) => FaultDisposition::Delayed,
        FaultAction::Error => match site {
            InjectionSite::GuardOffer
            | InjectionSite::GuardValidate
            | InjectionSite::LocateWorker => FaultDisposition::DeadLettered,
            InjectionSite::PreprocessClassify => FaultDisposition::Unclassified,
            InjectionSite::PreprocessConsolidate => FaultDisposition::ConsolidationBypassed,
            InjectionSite::ShardRoute => FaultDisposition::Rerouted,
            InjectionSite::MatrixBuild => FaultDisposition::MatrixSkipped,
            InjectionSite::Evaluate => FaultDisposition::ZoomDegraded,
            InjectionSite::SopSelect => FaultDisposition::SopSkipped,
            InjectionSite::WalAppend => FaultDisposition::WalRejected,
            InjectionSite::SnapshotWrite => FaultDisposition::SnapshotSkipped,
        },
    }
}

/// Ledger entry: one fault that actually fired.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InjectedFault {
    /// Where it fired.
    pub site: InjectionSite,
    /// Which lane (shard index for sharded stages, 0 elsewhere).
    pub lane: u32,
    /// The site's check count at the moment of firing (1-based).
    pub ordinal: u64,
    /// What the rule did.
    pub action: FaultAction,
    /// What became of the intercepted passage.
    pub disposition: FaultDisposition,
    /// Trace id of the alert/incident in flight ([`TraceId::NONE`] when
    /// tracing was off or no alert was in scope).
    pub trace: TraceId,
    /// Simulation time at the passage.
    pub at: SimTime,
}

/// Panic payload raised by [`FaultAction::Panic`]; supervisors downcast it
/// to preserve the injection site in the terminal error.
#[derive(Debug, Clone, Copy)]
pub struct FaultPanic(pub InjectionSite);

/// Serialized decision state of one (site, lane) arm — what a service
/// snapshot stores so a restarted process resumes every decision stream
/// without rewinding it (the RNG position is implied by `checks`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArmSnapshot {
    /// The site this arm guards.
    pub site: InjectionSite,
    /// The lane (shard index for sharded stages, 0 elsewhere).
    pub lane: u32,
    /// Stage passages observed so far.
    pub checks: u64,
    /// Trace id in flight at the last firing.
    pub last_fired_trace: TraceId,
    /// Simulation time of the last firing.
    pub last_fired_at: SimTime,
}

/// Per-(site, lane) decision stream. Lives in the plane so it survives
/// worker restarts.
#[derive(Debug)]
struct ArmState {
    rng: ChaCha8Rng,
    checks: u64,
    last_fired_trace: TraceId,
    last_fired_at: SimTime,
}

/// SplitMix64 over the seed and site/lane, so each arm gets an
/// independent, stable ChaCha stream.
fn mix(seed: u64, site: InjectionSite, lane: u32) -> u64 {
    let mut z = seed
        ^ (site.index() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (lane as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Decision state per (site, lane), shared with the arms handed out for it.
type ArmTable = HashMap<(InjectionSite, u32), Arc<Mutex<ArmState>>>;

/// The shared fault-injection runtime for one pipeline run: canonical
/// decision state per (site, lane), the fired-fault ledger, per-site
/// metrics and the trace hook.
#[derive(Debug)]
pub struct FaultPlane {
    seed: u64,
    rules: Vec<FaultRule>,
    arms: Mutex<ArmTable>,
    ledger: Mutex<Vec<InjectedFault>>,
    counters: [Counter; InjectionSite::ALL.len()],
    tracer: StageTracer,
}

impl FaultPlane {
    /// Builds the plane, or `None` when the policy is disabled or empty —
    /// the zero-cost path.
    pub fn from_config(cfg: &FaultConfig, obs: &Observability) -> Option<Arc<FaultPlane>> {
        if !cfg.is_active() {
            return None;
        }
        let counters = InjectionSite::ALL.map(|site| {
            obs.registry().labeled_counter(
                "skynet_faults_injected_total",
                Some(("site", site.label())),
                "Faults injected by the fault plane, by site",
            )
        });
        Some(Arc::new(FaultPlane {
            seed: cfg.seed,
            rules: cfg.rules.clone(),
            arms: Mutex::new(HashMap::new()),
            ledger: Mutex::new(Vec::new()),
            counters,
            tracer: obs.tracer(),
        }))
    }

    /// Arms a site for one lane. Returns `None` when no rule targets the
    /// site, so un-targeted boundaries stay free. Re-arming the same
    /// (site, lane) — e.g. after a worker restart — resumes the existing
    /// decision stream.
    pub fn arm(self: &Arc<Self>, site: InjectionSite, lane: u32) -> Option<FaultArm> {
        if !self.rules.iter().any(|r| r.site == site) {
            return None;
        }
        let state = Arc::clone(self.arms.lock().entry((site, lane)).or_insert_with(|| {
            Arc::new(Mutex::new(ArmState {
                rng: ChaCha8Rng::seed_from_u64(mix(self.seed, site, lane)),
                checks: 0,
                last_fired_trace: TraceId::NONE,
                last_fired_at: SimTime::ZERO,
            }))
        }));
        Some(FaultArm {
            plane: Arc::clone(self),
            site,
            lane,
            state,
        })
    }

    /// Serializes the decision state of every arm ever armed, sorted by
    /// (site, lane). Together with the seed and rules (already in the
    /// [`FaultConfig`]) this is everything a warm restart needs to resume
    /// each decision stream exactly where it stopped.
    pub fn arm_snapshots(&self) -> Vec<ArmSnapshot> {
        let arms = self.arms.lock();
        let mut snaps: Vec<ArmSnapshot> = arms
            .iter()
            .map(|(&(site, lane), state)| {
                let st = state.lock();
                ArmSnapshot {
                    site,
                    lane,
                    checks: st.checks,
                    last_fired_trace: st.last_fired_trace,
                    last_fired_at: st.last_fired_at,
                }
            })
            .collect();
        snaps.sort_by_key(|s| (s.site.index(), s.lane));
        snaps
    }

    /// Restores arm decision state captured by [`FaultPlane::arm_snapshots`]
    /// on a freshly built plane (same seed and rules). Each arm's ChaCha
    /// stream is re-seeded and fast-forwarded: [`FaultArm::check`] draws
    /// one `gen_bool` per probability rule targeting the site on *every*
    /// check, so replaying `checks × probability-rule-count` draws lands
    /// the stream exactly where the snapshot left it.
    pub fn restore_arms(self: &Arc<Self>, snapshots: &[ArmSnapshot]) {
        let mut arms = self.arms.lock();
        for snap in snapshots {
            let prob_rules: Vec<f64> = self
                .rules
                .iter()
                .filter(|r| r.site == snap.site)
                .filter_map(|r| match r.trigger {
                    FaultTrigger::Probability(p) => Some(p.clamp(0.0, 1.0)),
                    _ => None,
                })
                .collect();
            let mut rng = ChaCha8Rng::seed_from_u64(mix(self.seed, snap.site, snap.lane));
            for _ in 0..snap.checks {
                for &p in &prob_rules {
                    let _ = rng.gen_bool(p);
                }
            }
            arms.insert(
                (snap.site, snap.lane),
                Arc::new(Mutex::new(ArmState {
                    rng,
                    checks: snap.checks,
                    last_fired_trace: snap.last_fired_trace,
                    last_fired_at: snap.last_fired_at,
                })),
            );
        }
    }

    /// Replaces the fired-fault ledger with one captured by
    /// [`FaultPlane::ledger`] before a restart, so a warm-restarted
    /// service's reports still account for faults the previous process
    /// incarnation fired. Arm decision state is restored separately via
    /// [`FaultPlane::restore_arms`].
    pub fn restore_ledger(&self, faults: Vec<InjectedFault>) {
        *self.ledger.lock() = faults;
    }

    /// Every fault that fired, sorted by (site, lane, ordinal) so the
    /// ledger is deterministic regardless of worker scheduling.
    pub fn ledger(&self) -> Vec<InjectedFault> {
        let mut faults = self.ledger.lock().clone();
        faults.sort_by_key(|f| (f.site.index(), f.lane, f.ordinal));
        faults
    }

    /// Total faults fired so far.
    pub fn fault_count(&self) -> usize {
        self.ledger.lock().len()
    }

    fn record(&self, fault: InjectedFault) {
        self.counters[fault.site.index()].inc();
        self.tracer
            .record(fault.trace, fault.at, Stage::FaultInjected(fault.site));
        self.ledger.lock().push(fault);
    }
}

/// A site's handle for one lane: workers call [`FaultArm::check`] (or the
/// [`trip`] shorthand) at the stage boundary.
#[derive(Debug, Clone)]
pub struct FaultArm {
    plane: Arc<FaultPlane>,
    site: InjectionSite,
    lane: u32,
    state: Arc<Mutex<ArmState>>,
}

impl FaultArm {
    /// The site this arm guards.
    pub fn site(&self) -> InjectionSite {
        self.site
    }

    /// One stage passage: advances the decision stream and returns the
    /// action of the first rule that fires, recording it in the ledger,
    /// the per-site counter and the trace ring. Probability rules draw on
    /// every check (even after an earlier rule fired) so the stream stays
    /// aligned whatever the rule mix.
    pub fn check(&self, trace: TraceId, at: SimTime) -> Option<FaultAction> {
        let mut st = self.state.lock();
        st.checks += 1;
        let checks = st.checks;
        let mut fired: Option<FaultRule> = None;
        for rule in self.plane.rules.iter().filter(|r| r.site == self.site) {
            let hit = match rule.trigger {
                FaultTrigger::Probability(p) => st.rng.gen_bool(p.clamp(0.0, 1.0)),
                // `is_multiple_of` is newer than the crate's `rust-version`.
                #[allow(clippy::manual_is_multiple_of)]
                FaultTrigger::Every(n) => n > 0 && checks % n == 0,
                FaultTrigger::Once(n) => checks == n,
                FaultTrigger::After(n) => checks > n,
            };
            if hit && fired.is_none() {
                fired = Some(*rule);
            }
        }
        let rule = fired?;
        st.last_fired_trace = trace;
        st.last_fired_at = at;
        drop(st);
        self.plane.record(InjectedFault {
            site: self.site,
            lane: self.lane,
            ordinal: checks,
            action: rule.action,
            disposition: disposition(self.site, rule.action),
            trace,
            at,
        });
        Some(rule.action)
    }

    /// Convenience wrapper for sites whose error path is a simple early
    /// return: latency sleeps and proceeds (`false`), a panic raises
    /// [`FaultPanic`], an error returns `true`.
    pub fn should_fail(&self, trace: TraceId, at: SimTime) -> bool {
        match self.check(trace, at) {
            None => false,
            Some(FaultAction::Error) => true,
            Some(FaultAction::Latency(ms)) => {
                sleep_ms(ms);
                false
            }
            Some(FaultAction::Panic) => self.panic_now(),
        }
    }

    /// Raises the supervisor-visible panic for this site. Call sites that
    /// must preserve in-flight data (dead-letter first) use
    /// [`FaultArm::check`] and then this.
    pub fn panic_now(&self) -> ! {
        std::panic::panic_any(FaultPanic(self.site))
    }
}

/// Sleeps an injected-latency interval.
pub fn sleep_ms(ms: u64) {
    if ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

/// Checks an optional arm at a boundary whose error path is an early
/// return; a disarmed site costs one `Option` test.
pub fn trip(arm: &Option<FaultArm>, trace: TraceId, at: SimTime) -> bool {
    arm.as_ref().is_some_and(|a| a.should_fail(trace, at))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::ObsConfig;

    fn obs() -> Observability {
        Observability::new(&ObsConfig::default())
    }

    fn plane(cfg: FaultConfig) -> Arc<FaultPlane> {
        FaultPlane::from_config(&cfg, &obs()).expect("active policy builds a plane")
    }

    #[test]
    fn disabled_or_empty_policies_build_no_plane() {
        assert!(FaultPlane::from_config(&FaultConfig::default(), &obs()).is_none());
        assert!(FaultPlane::from_config(&FaultConfig::seeded(7), &obs()).is_none());
        let disabled = FaultConfig::seeded(7)
            .with_rule(FaultRule::every(
                InjectionSite::GuardOffer,
                2,
                FaultAction::Error,
            ))
            .with_enabled(false);
        assert!(FaultPlane::from_config(&disabled, &obs()).is_none());
    }

    #[test]
    fn untargeted_sites_are_never_armed() {
        let p = plane(FaultConfig::seeded(1).with_rule(FaultRule::every(
            InjectionSite::Evaluate,
            1,
            FaultAction::Error,
        )));
        assert!(p.arm(InjectionSite::GuardOffer, 0).is_none());
        assert!(p.arm(InjectionSite::Evaluate, 0).is_some());
    }

    #[test]
    fn trigger_semantics_every_once_after() {
        let cfg = FaultConfig::seeded(0)
            .with_rule(FaultRule::every(
                InjectionSite::GuardOffer,
                3,
                FaultAction::Error,
            ))
            .with_rule(FaultRule::once(
                InjectionSite::GuardValidate,
                2,
                FaultAction::Error,
            ))
            .with_rule(FaultRule::after(
                InjectionSite::Evaluate,
                2,
                FaultAction::Error,
            ));
        let p = plane(cfg);
        let every = p.arm(InjectionSite::GuardOffer, 0).unwrap();
        let hits: Vec<bool> = (0..6)
            .map(|_| every.check(TraceId::NONE, SimTime::ZERO).is_some())
            .collect();
        assert_eq!(hits, [false, false, true, false, false, true]);

        let once = p.arm(InjectionSite::GuardValidate, 0).unwrap();
        let hits: Vec<bool> = (0..4)
            .map(|_| once.check(TraceId::NONE, SimTime::ZERO).is_some())
            .collect();
        assert_eq!(hits, [false, true, false, false]);

        let after = p.arm(InjectionSite::Evaluate, 0).unwrap();
        let hits: Vec<bool> = (0..4)
            .map(|_| after.check(TraceId::NONE, SimTime::ZERO).is_some())
            .collect();
        assert_eq!(hits, [false, false, true, true]);
    }

    #[test]
    fn probability_stream_is_deterministic_per_seed_and_lane() {
        let cfg = FaultConfig::seeded(42).with_rule(FaultRule::probability(
            InjectionSite::LocateWorker,
            0.3,
            FaultAction::Error,
        ));
        let run = |lane: u32| -> Vec<bool> {
            let arm = plane(cfg.clone())
                .arm(InjectionSite::LocateWorker, lane)
                .unwrap();
            (0..64)
                .map(|_| arm.check(TraceId::NONE, SimTime::ZERO).is_some())
                .collect()
        };
        assert_eq!(run(0), run(0), "same seed + lane replays identically");
        assert_ne!(run(0), run(1), "lanes draw from independent streams");
    }

    #[test]
    fn rearming_resumes_the_decision_stream() {
        let p = plane(FaultConfig::seeded(0).with_rule(FaultRule::once(
            InjectionSite::LocateWorker,
            2,
            FaultAction::Error,
        )));
        let first = p.arm(InjectionSite::LocateWorker, 3).unwrap();
        assert!(first.check(TraceId(9), SimTime::from_secs(5)).is_none());
        assert!(first.check(TraceId(10), SimTime::from_secs(6)).is_some());
        drop(first);
        // A restarted worker re-arms: the once-rule must NOT fire again.
        let second = p.arm(InjectionSite::LocateWorker, 3).unwrap();
        for _ in 0..8 {
            assert!(second.check(TraceId::NONE, SimTime::ZERO).is_none());
        }
        let snap = &p.arm_snapshots()[0];
        assert_eq!(snap.last_fired_trace, TraceId(10));
        assert_eq!(snap.last_fired_at, SimTime::from_secs(6));
    }

    #[test]
    fn ledger_is_sorted_and_counters_reconcile() {
        let o = obs();
        let cfg = FaultConfig::seeded(0)
            .with_rule(FaultRule::every(
                InjectionSite::Evaluate,
                1,
                FaultAction::Error,
            ))
            .with_rule(FaultRule::every(
                InjectionSite::GuardOffer,
                1,
                FaultAction::Latency(0),
            ));
        let p = FaultPlane::from_config(&cfg, &o).unwrap();
        let eval = p.arm(InjectionSite::Evaluate, 1).unwrap();
        let guard = p.arm(InjectionSite::GuardOffer, 0).unwrap();
        eval.check(TraceId(2), SimTime::from_secs(2));
        guard.check(TraceId(1), SimTime::from_secs(1));
        let ledger = p.ledger();
        assert_eq!(ledger.len(), 2);
        // Sorted by site order, not firing order.
        assert_eq!(ledger[0].site, InjectionSite::GuardOffer);
        assert_eq!(ledger[0].disposition, FaultDisposition::Delayed);
        assert_eq!(ledger[1].site, InjectionSite::Evaluate);
        assert_eq!(ledger[1].disposition, FaultDisposition::ZoomDegraded);
        let snap = o.snapshot();
        assert_eq!(
            snap.counter("skynet_faults_injected_total", Some("guard-offer")),
            1
        );
        assert_eq!(
            snap.counter("skynet_faults_injected_total", Some("evaluate")),
            1
        );
    }

    #[test]
    fn restored_arms_resume_probability_streams_exactly() {
        let cfg = FaultConfig::seeded(99)
            .with_rule(FaultRule::probability(
                InjectionSite::GuardOffer,
                0.4,
                FaultAction::Error,
            ))
            .with_rule(FaultRule::probability(
                InjectionSite::GuardOffer,
                0.1,
                FaultAction::Latency(0),
            ));
        let live = plane(cfg.clone());
        let arm = live.arm(InjectionSite::GuardOffer, 2).unwrap();
        let before: Vec<bool> = (0..23)
            .map(|_| arm.check(TraceId::NONE, SimTime::ZERO).is_some())
            .collect();
        let snaps = live.arm_snapshots();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].checks, 23);
        // Round-trip through serde like a real snapshot file would.
        let json = serde_json::to_string(&snaps).unwrap();
        let snaps: Vec<ArmSnapshot> = serde_json::from_str(&json).unwrap();

        let restored = plane(cfg);
        restored.restore_arms(&snaps);
        let rearmed = restored.arm(InjectionSite::GuardOffer, 2).unwrap();
        let after_restored: Vec<bool> = (0..41)
            .map(|_| rearmed.check(TraceId::NONE, SimTime::ZERO).is_some())
            .collect();
        let after_live: Vec<bool> = (0..41)
            .map(|_| arm.check(TraceId::NONE, SimTime::ZERO).is_some())
            .collect();
        assert_eq!(after_restored, after_live, "streams diverged after restore");
        let _ = before;
    }

    #[test]
    fn site_labels_are_stable_and_distinct() {
        let mut labels: Vec<&str> = InjectionSite::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), InjectionSite::ALL.len());
        for (i, site) in InjectionSite::ALL.iter().enumerate() {
            assert_eq!(site.index(), i);
        }
    }
}
