//! The service runtime: tenant admission, bounded per-tenant queues with
//! `BUSY` backpressure, WAL-before-ack submission, snapshot/restore warm
//! restarts, and the [`ServiceHandle`] the builder returns.
//!
//! Concurrency layout: one dedicated worker thread per tenant drains that
//! tenant's bounded queue into its [`TenantEngine`]; submissions *sequence*
//! into the shared group-commit WAL ([`GroupWal`]) while holding the
//! tenant's queue lock (lock order is always queue → sequencer), so a
//! tenant's queue order equals its WAL order — then release every lock and
//! wait for the committer thread's durability watermark before acking.
//! A slow tenant fills only its own queue — the `BUSY` check happens before
//! sequencing — and a slow *fsync* stalls no sequencer: the committer
//! amortizes one fsync across every frame that piled up behind it.

use super::engine::TenantEngine;
use super::group::GroupWal;
use super::snapshot::{self, ServiceSnapshot, TenantSnapshot, SNAPSHOT_VERSION};
use super::wal::{WalEvent, WalReader, WalWriter};
use super::{ServeConfig, ServeError};
use crate::error::RejectReason;
use crate::faultinject::{
    self, DegradationReport, FaultAction, FaultArm, FaultPlane, InjectionSite,
};
use crate::guard::DeadLetterQueue;
use crate::obs::{
    Counter, Exporter, Histogram, Observability, RegistrySnapshot, TraceEvent, LATENCY_BUCKETS,
};
use crate::pipeline::{AnalysisReport, HealthReport, SkyNet};
use parking_lot::{Condvar, Mutex};
use serde::Serialize;
use skynet_model::{PingSample, RawAlert, SimTime, TraceId};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

/// One message on a tenant's queue. `Apply` carries a sequenced WAL
/// record; the control messages bypass the capacity check (they carry no
/// alert volume and must stay deliverable under backpressure).
enum TenantMsg {
    /// Apply one sequenced WAL event (seq, commit ordinal, event) to the
    /// tenant's engine — after waiting out its durability.
    Apply(u64, u64, WalEvent),
    /// Finalize the tenant's run at the horizon and reply with the report;
    /// the engine restarts as a fresh incarnation afterwards.
    Report(SimTime, mpsc::Sender<AnalysisReport>),
    /// Reply with the tenant's serialized mid-flood state.
    Snapshot(mpsc::Sender<TenantSnapshot>),
    /// Exit the worker loop.
    Shutdown,
}

/// A tenant's queue plus the pause flag the backpressure tests use.
struct TenantQueue {
    items: VecDeque<TenantMsg>,
    /// While `true` the worker stops draining *applies* (control messages
    /// are still serviced) — how tests (and operators draining a
    /// misbehaving tenant) simulate a slow consumer.
    paused: bool,
}

/// Everything the service keeps per admitted tenant.
struct TenantSlot {
    name: String,
    /// Admission ordinal — fixes the tenant's fault-lane stripe.
    index: usize,
    /// The tenant's dense id in the group-commit sequencer.
    wal_id: u32,
    queue: Mutex<TenantQueue>,
    cond: Condvar,
    accepted: AtomicU64,
    busy: AtomicU64,
    applied_seq: AtomicU64,
    accepted_metric: Counter,
    busy_metric: Counter,
    /// The current engine incarnation's dead-letter queue (replaced on
    /// report, when a fresh incarnation starts).
    dead: Mutex<Arc<Mutex<DeadLetterQueue>>>,
}

impl TenantSlot {
    fn push(&self, msg: TenantMsg) {
        self.queue.lock().items.push_back(msg);
        self.cond.notify_one();
    }
}

/// One tenant's externally visible health, for per-tenant monitoring.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
#[non_exhaustive]
pub struct TenantHealth {
    /// The tenant's name.
    pub name: String,
    /// Events waiting in the tenant's bounded queue.
    pub queued: usize,
    /// Events accepted (WAL-acked) so far.
    pub accepted: u64,
    /// Submissions rejected with `BUSY` backpressure so far.
    pub busy_rejections: u64,
    /// The highest WAL sequence number the tenant's engine has applied.
    pub applied_seq: u64,
    /// Whether the tenant's worker is paused (draining stopped).
    pub paused: bool,
}

/// The outcome of a batched submission ([`ServiceHandle::submit_batch`]):
/// the accepted events occupy the contiguous per-tenant sequence range
/// `first_seq..=last_seq`, all durable by the time the ack exists.
/// `rejected` counts events bounced by an injected `wal-append` fault
/// (each consumed no seq, exactly as if submitted one at a time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[non_exhaustive]
pub struct BatchAck {
    /// Sequence number of the first accepted event (0 if none accepted).
    pub first_seq: u64,
    /// Sequence number of the last accepted event (0 if none accepted).
    pub last_seq: u64,
    /// Events accepted and durable.
    pub accepted: usize,
    /// Events rejected by the `wal-append` fault arm.
    pub rejected: usize,
}

/// Shared state behind the handle, the workers and the TCP front door.
pub(super) struct ServiceInner {
    skynet: SkyNet,
    cfg: ServeConfig,
    obs: Observability,
    plane: Option<Arc<FaultPlane>>,
    wal: GroupWal,
    snapshot_fault: Option<FaultArm>,
    tenants: Mutex<Vec<Arc<TenantSlot>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    shutting_down: AtomicBool,
    restarts: AtomicU64,
    restart_metric: Counter,
    submit_seconds: Histogram,
    local_addr: Option<SocketAddr>,
}

/// The event time a WAL append is stamped with (drives time-triggered
/// fault arms).
fn event_time(event: &WalEvent) -> SimTime {
    match event {
        WalEvent::Alert(raw) => raw.timestamp,
        WalEvent::Ping(sample) => sample.t,
        WalEvent::Tick(at) => *at,
        WalEvent::ReportBoundary(at) => *at,
    }
}

impl ServiceInner {
    pub(super) fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    fn find(&self, tenant: &str) -> Result<Arc<TenantSlot>, ServeError> {
        self.tenants
            .lock()
            .iter()
            .find(|s| s.name == tenant)
            .cloned()
            .ok_or_else(|| ServeError::UnknownTenant(tenant.to_string()))
    }

    /// Admits `tenant` (idempotent) and spawns its worker.
    pub(super) fn admit(self: &Arc<Self>, tenant: &str) -> Result<(), ServeError> {
        if self.is_shutting_down() {
            return Err(ServeError::ShuttingDown);
        }
        let mut tenants = self.tenants.lock();
        if tenants.iter().any(|s| s.name == tenant) {
            return Ok(());
        }
        let index = tenants.len();
        let engine = TenantEngine::new(&self.skynet, tenant, index, &self.plane);
        let slot = self.new_slot(tenant, index, engine.engine.dead_letters());
        tenants.push(Arc::clone(&slot));
        self.obs
            .registry()
            .gauge("skynet_tenants", "tenants admitted to the ingest service")
            .set(tenants.len() as f64);
        drop(tenants);
        self.spawn_worker(slot, engine);
        Ok(())
    }

    fn new_slot(
        &self,
        tenant: &str,
        index: usize,
        dead: Arc<Mutex<DeadLetterQueue>>,
    ) -> Arc<TenantSlot> {
        let reg = self.obs.registry();
        Arc::new(TenantSlot {
            name: tenant.to_string(),
            index,
            wal_id: self.wal.register(tenant),
            queue: Mutex::new(TenantQueue {
                items: VecDeque::new(),
                paused: false,
            }),
            cond: Condvar::new(),
            accepted: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            applied_seq: AtomicU64::new(0),
            accepted_metric: reg.labeled_counter(
                "skynet_tenant_accepted_total",
                Some(("tenant", tenant)),
                "events accepted (WAL-acked) by the ingest service, per tenant",
            ),
            busy_metric: reg.labeled_counter(
                "skynet_tenant_busy_total",
                Some(("tenant", tenant)),
                "submissions rejected with BUSY backpressure, per tenant",
            ),
            dead: Mutex::new(dead),
        })
    }

    fn spawn_worker(self: &Arc<Self>, slot: Arc<TenantSlot>, engine: TenantEngine) {
        let inner = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("skynet-tenant-{}", slot.index))
            .spawn(move || run_tenant(inner, slot, engine))
            .expect("spawning a tenant worker thread");
        self.workers.lock().push(handle);
    }

    /// Single-event submission: a batch of one through the one admission
    /// path. An injected `wal-append` rejection surfaces as
    /// [`ServeError::WalRejected`].
    pub(super) fn submit(&self, tenant: &str, event: WalEvent) -> Result<u64, ServeError> {
        let ack = self.submit_batch(tenant, std::iter::once(event))?;
        if ack.accepted == 0 {
            return Err(ServeError::WalRejected);
        }
        Ok(ack.first_seq)
    }

    /// The one submission path: capacity check, sequence into the group
    /// WAL, enqueue, then wait for durability and ack. The queue lock is
    /// held across sequencing (never across the fsync) so a tenant's
    /// queue order equals its WAL order, while the durability wait runs
    /// lock-free — one tenant's flush stalls nobody else's sequencing.
    ///
    /// A batch sequences every event under one queue-lock acquisition (one
    /// contiguous per-tenant seq range), then waits for durability once —
    /// one fsync can cover the whole batch. Capacity is checked for the
    /// batch up front: a full queue bounces the entire batch with `BUSY`
    /// and admits nothing. Injected `wal-append` rejections drop
    /// individual events (each consumes no seq).
    pub(super) fn submit_batch(
        &self,
        tenant: &str,
        events: impl ExactSizeIterator<Item = WalEvent>,
    ) -> Result<BatchAck, ServeError> {
        if self.is_shutting_down() {
            return Err(ServeError::ShuttingDown);
        }
        let started = Instant::now();
        let slot = self.find(tenant)?;
        let mut ack = BatchAck {
            first_seq: 0,
            last_seq: 0,
            accepted: 0,
            rejected: 0,
        };
        if events.len() == 0 {
            return Ok(ack);
        }
        let mut q = slot.queue.lock();
        if q.items.len() + events.len() > self.cfg.tenant_queue_capacity {
            slot.busy.fetch_add(1, Ordering::Relaxed);
            slot.busy_metric.inc();
            return Err(ServeError::Busy {
                tenant: tenant.to_string(),
            });
        }
        let mut last_ordinal = 0u64;
        for event in events {
            let at = event_time(&event);
            match self.wal.begin_submit(slot.wal_id, &event, at) {
                Ok((seq, ordinal)) => {
                    if ack.accepted == 0 {
                        ack.first_seq = seq;
                    }
                    ack.last_seq = seq;
                    ack.accepted += 1;
                    last_ordinal = ordinal;
                    q.items.push_back(TenantMsg::Apply(seq, ordinal, event));
                }
                Err(ServeError::WalRejected) => ack.rejected += 1,
                Err(e) => return Err(e),
            }
        }
        drop(q);
        if ack.accepted > 0 {
            slot.cond.notify_one();
            self.wal.wait_durable(last_ordinal)?;
            slot.accepted
                .fetch_add(ack.accepted as u64, Ordering::Relaxed);
            slot.accepted_metric.add(ack.accepted as u64);
        }
        self.submit_seconds.observe(started.elapsed().as_secs_f64());
        Ok(ack)
    }

    pub(super) fn report(
        &self,
        tenant: &str,
        horizon: SimTime,
    ) -> Result<AnalysisReport, ServeError> {
        let slot = self.find(tenant)?;
        let (tx, rx) = mpsc::channel();
        let ordinal = {
            // Mark the incarnation boundary on the log before the Report
            // message exists, under the queue lock (queue order = WAL
            // order): every record below the boundary belongs to the
            // incarnation whose report this call delivers, so a crash
            // after the report can never replay them into the fresh one.
            // The boundary bypasses the `wal-append` arm — it is service
            // control flow, not tenant data, and must neither consume a
            // slot in nor be vetoed by the injected decision stream.
            let mut q = slot.queue.lock();
            // `shutdown` raises the flag before it queues `Shutdown` under
            // this lock. Flag up: the worker is leaving and would never
            // answer (a front-door connection can still ask). Flag down:
            // this Report is queued ahead of the `Shutdown` and is answered.
            if self.is_shutting_down() {
                return Err(ServeError::ShuttingDown);
            }
            let (_, ordinal) = self
                .wal
                .begin_submit_unchecked(slot.wal_id, &WalEvent::ReportBoundary(horizon))?;
            q.items.push_back(TenantMsg::Report(horizon, tx));
            ordinal
        };
        slot.cond.notify_one();
        self.wal.wait_durable(ordinal)?;
        rx.recv().map_err(|_| ServeError::ShuttingDown)
    }

    fn tenant_health_of(&self, slot: &TenantSlot) -> TenantHealth {
        let q = slot.queue.lock();
        TenantHealth {
            name: slot.name.clone(),
            queued: q.items.len(),
            accepted: slot.accepted.load(Ordering::Relaxed),
            busy_rejections: slot.busy.load(Ordering::Relaxed),
            applied_seq: slot.applied_seq.load(Ordering::Relaxed),
            paused: q.paused,
        }
    }
}

/// One tenant worker: drain the queue into the engine, surviving injected
/// panics (each costs a restart tick; the engine state carries on — arm
/// decision streams live in the shared plane, so nothing rewinds).
fn run_tenant(inner: Arc<ServiceInner>, slot: Arc<TenantSlot>, mut engine: TenantEngine) {
    loop {
        let msg = {
            let mut q = slot.queue.lock();
            loop {
                // Pausing defers only Apply drains. Control messages
                // (report, snapshot, shutdown) stay serviceable — a
                // paused tenant must never hang a snapshot() caller or
                // wedge shutdown.
                let next = if q.paused {
                    q.items
                        .iter()
                        .position(|m| !matches!(m, TenantMsg::Apply(..)))
                        .and_then(|i| q.items.remove(i))
                } else {
                    q.items.pop_front()
                };
                if let Some(msg) = next {
                    break msg;
                }
                slot.cond.wait(&mut q);
            }
        };
        match msg {
            TenantMsg::Apply(seq, ordinal, event) => {
                // Never apply an event whose durability is still pending
                // — a snapshot taken after the apply must not capture
                // state from a record that could still fail its commit.
                // On commit failure the event is dropped unapplied (its
                // submitter got the error, not an ack).
                if inner.wal.wait_durable(ordinal).is_ok() {
                    let outcome =
                        std::panic::catch_unwind(AssertUnwindSafe(|| engine.apply(seq, event)));
                    if outcome.is_err() {
                        inner.restarts.fetch_add(1, Ordering::Relaxed);
                        inner.restart_metric.inc();
                    }
                    slot.applied_seq
                        .store(engine.last_applied_seq, Ordering::Relaxed);
                }
            }
            TenantMsg::Report(horizon, tx) => {
                let fresh = TenantEngine::new(&inner.skynet, &slot.name, slot.index, &inner.plane);
                *slot.dead.lock() = fresh.engine.dead_letters();
                let done = std::mem::replace(&mut engine, fresh);
                let report = done
                    .engine
                    .finish(&inner.skynet, horizon, inner.plane.clone());
                let _ = tx.send(report);
                slot.applied_seq.store(0, Ordering::Relaxed);
            }
            TenantMsg::Snapshot(tx) => {
                let _ = tx.send(engine.snapshot());
            }
            TenantMsg::Shutdown => break,
        }
    }
}

/// The running ingest service. Returned by
/// [`SkyNetBuilder::serve`](crate::SkyNetBuilder::serve); dropping the
/// handle shuts the service down (workers joined, WAL synced).
///
/// Thread-safe: every method takes `&self`.
#[derive(Debug)]
pub struct ServiceHandle {
    inner: Arc<ServiceInner>,
    listener: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for ServiceInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceInner")
            .field("cfg", &self.cfg)
            .field("tenants", &self.tenants.lock().len())
            .finish_non_exhaustive()
    }
}

impl ServiceHandle {
    /// Starts the service: cold when `cfg.wal_dir` is empty, warm when a
    /// snapshot and/or WAL segments are present — warm restarts restore
    /// every tenant's mid-flood state and replay the WAL tail past each
    /// tenant's applied watermark before accepting new traffic.
    pub(crate) fn start(skynet: SkyNet, cfg: ServeConfig) -> Result<ServiceHandle, ServeError> {
        std::fs::create_dir_all(&cfg.wal_dir)?;
        let obs = skynet.obs.clone();
        let plane = FaultPlane::from_config(&skynet.cfg.faults, &obs);
        let snap = snapshot::load(&cfg.wal_dir)?;
        // A snapshot only restores onto the configuration it was taken
        // over. Validate that up front and fail recoverably — the restore
        // paths deeper down assert these invariants, and a config change
        // between runs must surface as an error, not a panic.
        if let Some(snap) = &snap {
            let shards = skynet.cfg.streaming.shards.max(1);
            let base = skynet.topo.interner().len();
            for tenant in &snap.tenants {
                if tenant.locators.len() != shards {
                    return Err(ServeError::Corrupt(format!(
                        "tenant {:?} was snapshotted at {} shard(s) but this service is \
                         configured for {shards}; restart with the snapshot's shard count \
                         or remove the snapshot",
                        tenant.name,
                        tenant.locators.len(),
                    )));
                }
                if let Some(state) = tenant.locators.iter().find(|l| l.base_locs() != base) {
                    return Err(ServeError::Corrupt(format!(
                        "tenant {:?} was snapshotted over a topology with {} base locations \
                         but this service's topology has {base}; snapshots only restore onto \
                         the same topology",
                        tenant.name,
                        state.base_locs(),
                    )));
                }
            }
        }
        // Restore arm decision streams and the fired-fault ledger BEFORE
        // anything arms a site: arming picks up whatever state the plane
        // holds, so restore-then-arm resumes, arm-then-restore would fork.
        if let (Some(plane), Some(snap)) = (&plane, &snap) {
            plane.restore_arms(&snap.arms);
            plane.restore_ledger(snap.ledger.clone());
        }
        let (existing, disk_next) = WalReader::summarize(&cfg.wal_dir)?;
        let records = WalReader::scan(&cfg.wal_dir)?;
        // Per-tenant sequencing seeds: resume each tenant past both its
        // highest on-disk seq and the snapshot's recorded counter.
        let mut seeds = disk_next;
        if let Some(snap) = &snap {
            for tenant in &snap.tenants {
                let slot = seeds.entry(tenant.name.clone()).or_insert(1);
                *slot = (*slot).max(tenant.next_seq.max(1));
            }
        }
        let wal_fault = plane
            .as_ref()
            .and_then(|p| p.arm(InjectionSite::WalAppend, 0));
        let snapshot_fault = plane
            .as_ref()
            .and_then(|p| p.arm(InjectionSite::SnapshotWrite, 0));
        // A `wal-append` arm advances once per append *attempt*, and every
        // record on disk consumed one before the crash. Fast-forward one
        // check per record not already covered by the snapshot's arm state
        // — every scanned record on a snapshotless restart — so new
        // appends resume the original decision stream instead of rewinding
        // it (and the replayed span's fires land back in the ledger).
        // Coverage is per tenant: a record is covered when the snapshot's
        // counter for its tenant had already moved past its seq. Report
        // boundaries never consult the arm and are skipped. Exact whenever
        // the replayed span holds no rejected attempts — rejections leave
        // no record to count.
        if let Some(arm) = &wal_fault {
            for record in &records {
                let covered_below = snap
                    .as_ref()
                    .and_then(|s| s.tenants.iter().find(|t| t.name == record.tenant))
                    .map_or(1, |t| t.next_seq.max(1));
                if record.seq >= covered_below
                    && !matches!(record.event, WalEvent::ReportBoundary(_))
                {
                    let _ = arm.check(TraceId::NONE, event_time(&record.event));
                }
            }
        }
        let writer = WalWriter::open(&cfg, &obs, existing, seeds.clone())?;
        let wal = GroupWal::start(writer, wal_fault, &obs, seeds);
        let restart_metric = obs.registry().counter(
            "skynet_worker_restarts_total",
            "worker restarts performed by the supervisors",
        );
        let submit_seconds = obs.registry().histogram(
            "skynet_submit_seconds",
            None,
            &LATENCY_BUCKETS,
            "submit-to-ack latency (queue admission, sequencing and group commit)",
        );
        let listener = match &cfg.bind {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        let local_addr = match &listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let inner = Arc::new(ServiceInner {
            skynet,
            cfg,
            obs,
            plane,
            wal,
            snapshot_fault,
            tenants: Mutex::new(Vec::new()),
            workers: Mutex::new(Vec::new()),
            shutting_down: AtomicBool::new(false),
            restarts: AtomicU64::new(0),
            restart_metric,
            submit_seconds,
            local_addr,
        });

        // Rebuild tenants: snapshot order first (the order *is* the
        // fault-lane assignment), then tenants that only appear in the WAL
        // tail, in first-appearance order.
        let mut engines: Vec<TenantEngine> = Vec::new();
        if let Some(snap) = snap {
            for tenant_snap in snap.tenants {
                engines.push(TenantEngine::restore(
                    &inner.skynet,
                    engines.len(),
                    &inner.plane,
                    tenant_snap,
                ));
            }
        }
        for record in &records {
            if !engines.iter().any(|e| e.name == record.tenant) {
                let index = engines.len();
                engines.push(TenantEngine::new(
                    &inner.skynet,
                    &record.tenant,
                    index,
                    &inner.plane,
                ));
            }
        }
        // Replay each tenant's WAL tail past its applied watermark, in
        // global sequence order, before any new traffic is accepted.
        for record in records {
            let index = engines
                .iter()
                .position(|e| e.name == record.tenant)
                .expect("every WAL tenant has an engine");
            if record.seq <= engines[index].last_applied_seq {
                continue;
            }
            if matches!(record.event, WalEvent::ReportBoundary(_)) {
                // The incarnation below the boundary already delivered its
                // report; its replayed state must not leak into the next
                // one. Restart fresh, exactly like the live Report handler.
                engines[index] =
                    TenantEngine::new(&inner.skynet, &record.tenant, index, &inner.plane);
                continue;
            }
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                engines[index].apply(record.seq, record.event.clone())
            }));
            if outcome.is_err() {
                inner.restarts.fetch_add(1, Ordering::Relaxed);
                inner.restart_metric.inc();
            }
        }
        {
            let mut tenants = inner.tenants.lock();
            for engine in engines {
                let index = tenants.len();
                let slot = inner.new_slot(&engine.name, index, engine.engine.dead_letters());
                slot.applied_seq
                    .store(engine.last_applied_seq, Ordering::Relaxed);
                tenants.push(Arc::clone(&slot));
                inner.spawn_worker(slot, engine);
            }
            if !tenants.is_empty() {
                inner
                    .obs
                    .registry()
                    .gauge("skynet_tenants", "tenants admitted to the ingest service")
                    .set(tenants.len() as f64);
            }
        }

        let listener_handle = listener.map(|l| super::tcp::spawn(Arc::clone(&inner), l));
        Ok(ServiceHandle {
            inner,
            listener: Mutex::new(listener_handle),
        })
    }

    /// Admits a tenant (idempotent): allocates its bounded queue, pipeline
    /// engine and worker thread. Tenants are also admitted by the TCP
    /// front door's `hello`.
    pub fn hello(&self, tenant: &str) -> Result<(), ServeError> {
        self.inner.admit(tenant)
    }

    /// Submits one event on a tenant's feed. The event is on the WAL
    /// before the returned sequence number — the ack — exists.
    /// [`ServeError::Busy`] means the tenant's own queue is full; other
    /// tenants are unaffected.
    pub fn submit(&self, tenant: &str, event: WalEvent) -> Result<u64, ServeError> {
        self.inner.submit(tenant, event)
    }

    /// Submits a batch of events on a tenant's feed in one shot: the
    /// whole batch sequences under a single queue-lock acquisition (one
    /// contiguous per-tenant seq range, in order) and waits out a single
    /// commit epoch — so one fsync can cover the entire batch. Every
    /// accepted event is on the WAL before the ack exists, exactly like
    /// [`ServiceHandle::submit`]. A full queue bounces the whole batch
    /// with [`ServeError::Busy`]; injected `wal-append` faults drop
    /// individual events (counted in [`BatchAck::rejected`]).
    pub fn submit_batch(
        &self,
        tenant: &str,
        events: Vec<WalEvent>,
    ) -> Result<BatchAck, ServeError> {
        self.inner.submit_batch(tenant, events.into_iter())
    }

    /// [`ServiceHandle::submit_batch`] for raw alerts — the library face
    /// of the TCP front door's `alerts` verb.
    pub fn submit_alerts(
        &self,
        tenant: &str,
        alerts: Vec<RawAlert>,
    ) -> Result<BatchAck, ServeError> {
        self.inner
            .submit_batch(tenant, alerts.into_iter().map(WalEvent::Alert))
    }

    /// [`ServiceHandle::submit`] for a raw alert.
    pub fn submit_alert(&self, tenant: &str, alert: RawAlert) -> Result<u64, ServeError> {
        self.submit(tenant, WalEvent::Alert(alert))
    }

    /// [`ServiceHandle::submit`] for a ping sample.
    pub fn submit_ping(&self, tenant: &str, sample: PingSample) -> Result<u64, ServeError> {
        self.submit(tenant, WalEvent::Ping(sample))
    }

    /// [`ServiceHandle::submit`] for a clock tick.
    pub fn submit_tick(&self, tenant: &str, at: SimTime) -> Result<u64, ServeError> {
        self.submit(tenant, WalEvent::Tick(at))
    }

    /// Finalizes a tenant's run at `horizon` and returns the canonical
    /// [`AnalysisReport`] — byte-identical for the same feed whether the
    /// service ran uninterrupted or warm-restarted mid-flood. The tenant's
    /// engine restarts as a fresh incarnation afterwards, and a
    /// [`WalEvent::ReportBoundary`] record marks the cut on the log so a
    /// later restart never replays the reported feed into the fresh
    /// incarnation.
    ///
    /// Reporting a *paused* tenant finalizes immediately, ahead of any
    /// events still waiting in its queue; those acked events land in the
    /// next incarnation once the tenant resumes.
    pub fn report(&self, tenant: &str, horizon: SimTime) -> Result<AnalysisReport, ServeError> {
        self.inner.report(tenant, horizon)
    }

    /// Writes a service snapshot (every tenant's mid-flood state plus the
    /// fault plane's decision streams) to the WAL directory and applies
    /// WAL retention up to the snapshot floor. Returns the snapshot path.
    ///
    /// Each tenant's state is captured after its queue drains the messages
    /// enqueued before this call; for an exact fault-stream resumption
    /// take the snapshot at a quiescent point (no concurrent submissions).
    /// A *paused* tenant still answers — its worker services control
    /// messages while paused — capturing its state as of the pause; the
    /// events waiting in its queue stay above the snapshot floor and
    /// replay from the WAL on restart.
    pub fn snapshot(&self) -> Result<PathBuf, ServeError> {
        let inner = &self.inner;
        if let Some(arm) = &inner.snapshot_fault {
            match arm.check(TraceId::NONE, SimTime::ZERO) {
                Some(FaultAction::Error) => return Err(ServeError::SnapshotSkipped),
                Some(FaultAction::Panic) => arm.panic_now(),
                Some(FaultAction::Latency(ms)) => faultinject::sleep_ms(ms),
                None => {}
            }
        }
        let slots: Vec<Arc<TenantSlot>> = inner.tenants.lock().clone();
        let mut tenants = Vec::with_capacity(slots.len());
        for slot in &slots {
            let (tx, rx) = mpsc::channel();
            slot.push(TenantMsg::Snapshot(tx));
            tenants.push(rx.recv().map_err(|_| ServeError::ShuttingDown)?);
        }
        // Stamp each tenant's sequencing counter — the engine leaves the
        // field zeroed because only the sequencer knows it.
        let next_by_tenant: HashMap<String, u64> =
            inner.wal.tenant_next_seqs().into_iter().collect();
        for tenant in &mut tenants {
            tenant.next_seq = next_by_tenant.get(&tenant.name).copied().unwrap_or(1);
        }
        let snap = ServiceSnapshot {
            version: SNAPSHOT_VERSION,
            next_seq: tenants.iter().map(|t| t.next_seq).max().unwrap_or(1),
            tenants,
            arms: inner
                .plane
                .as_ref()
                .map(|p| p.arm_snapshots())
                .unwrap_or_default(),
            ledger: inner.plane.as_ref().map(|p| p.ledger()).unwrap_or_default(),
        };
        let path = snapshot::save(&inner.cfg.wal_dir, &snap)?;
        // Per-tenant retention floors: a segment is reclaimable once every
        // tenant's records in it are applied-and-snapshotted.
        let floors: Vec<(String, u64)> = snap
            .tenants
            .iter()
            .map(|t| (t.name.clone(), t.last_applied_seq))
            .collect();
        inner.wal.retain_after_snapshot(&floors)?;
        Ok(path)
    }

    /// Stops draining a tenant's queue (submissions still ack until the
    /// queue fills, then turn `BUSY`) — the operator's drain valve and the
    /// backpressure tests' slow-consumer switch. Only event applies stop:
    /// control operations (snapshot, report, shutdown) stay serviceable
    /// while the tenant is paused.
    pub fn pause_tenant(&self, tenant: &str) -> Result<(), ServeError> {
        let slot = self.inner.find(tenant)?;
        slot.queue.lock().paused = true;
        Ok(())
    }

    /// Resumes a paused tenant's worker.
    pub fn resume_tenant(&self, tenant: &str) -> Result<(), ServeError> {
        let slot = self.inner.find(tenant)?;
        slot.queue.lock().paused = false;
        slot.cond.notify_all();
        Ok(())
    }

    /// One tenant's health.
    pub fn tenant_health(&self, tenant: &str) -> Result<TenantHealth, ServeError> {
        let slot = self.inner.find(tenant)?;
        Ok(self.inner.tenant_health_of(&slot))
    }

    /// Every tenant's health, in admission order.
    pub fn tenants(&self) -> Vec<TenantHealth> {
        let slots: Vec<Arc<TenantSlot>> = self.inner.tenants.lock().clone();
        slots
            .iter()
            .map(|s| self.inner.tenant_health_of(s))
            .collect()
    }

    /// What the front door's `Conn::feed` executes against, for its
    /// socket-free tests.
    #[cfg(test)]
    pub(super) fn inner(&self) -> &Arc<ServiceInner> {
        &self.inner
    }

    /// The TCP front door's bound address, when one was configured —
    /// useful with `with_bind("127.0.0.1:0")` ephemeral ports.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.inner.local_addr
    }

    /// The service's shared observability handle.
    pub fn observability(&self) -> &Observability {
        &self.inner.obs
    }

    /// Shuts the service down: stops accepting, drains and joins every
    /// tenant worker, syncs the WAL, and stops the TCP front door.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        if self.inner.shutting_down.swap(true, Ordering::AcqRel) {
            return;
        }
        let slots: Vec<Arc<TenantSlot>> = self.inner.tenants.lock().clone();
        for slot in &slots {
            let mut q = slot.queue.lock();
            q.paused = false;
            q.items.push_back(TenantMsg::Shutdown);
            drop(q);
            slot.cond.notify_all();
        }
        let workers: Vec<JoinHandle<()>> = std::mem::take(&mut *self.inner.workers.lock());
        for handle in workers {
            let _ = handle.join();
        }
        if let Some(handle) = self.listener.lock().take() {
            // Wake the acceptor out of its blocking `accept`: it sees the
            // flag, shuts every connection's socket down and joins them.
            if let Some(addr) = self.inner.local_addr {
                let _ = TcpStream::connect(addr);
            }
            let _ = handle.join();
        }
        // Last: workers and the front door wait on commit epochs, so the
        // committer must outlive them. Shutting it down drains pending
        // frames and final-syncs the log.
        self.inner.wal.shutdown();
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Exporter for ServiceHandle {
    fn metrics_snapshot(&self) -> RegistrySnapshot {
        self.inner.obs.snapshot()
    }
}

impl ServiceHandle {
    /// The liveness probe a health-check endpoint polls.
    pub fn health(&self) -> HealthReport {
        let slots: Vec<Arc<TenantSlot>> = self.inner.tenants.lock().clone();
        let queued = slots.iter().map(|s| s.queue.lock().items.len()).sum();
        HealthReport {
            alive: !self.inner.is_shutting_down(),
            restarts: self.inner.restarts.load(Ordering::Relaxed) as u32,
            gave_up: false,
            degraded: None,
            queued_events: queued,
        }
    }

    /// The degradation story so far: fault ledger, restart/shed counters,
    /// quarantined evidence and the timeline from the trace ring.
    pub fn degradation_report(&self) -> DegradationReport {
        let slots: Vec<Arc<TenantSlot>> = self.inner.tenants.lock().clone();
        let fault_letters: u64 = slots
            .iter()
            .map(|s| s.dead.lock().lock().count(RejectReason::FaultInjected))
            .sum();
        DegradationReport::assemble(
            self.inner
                .plane
                .as_ref()
                .map(|p| p.ledger())
                .unwrap_or_default(),
            &self.inner.obs,
            fault_letters,
            self.inner.restarts.load(Ordering::Relaxed),
            false,
            None,
        )
    }

    /// The retained stage trace of one alert, oldest first.
    pub fn explain(&self, trace: TraceId) -> Vec<TraceEvent> {
        self.inner.obs.explain(trace)
    }
}

/// Re-ingests a WAL seq range through fresh per-tenant pipelines and
/// returns the reports the range encodes, in WAL order — the library
/// behind `skynet replay`. Sequence numbers are per tenant, so the
/// `from_seq`/`to_seq` window selects each tenant's own seq range (on
/// logs written under the old global numbering it behaves exactly as
/// before).
///
/// A [`WalEvent::ReportBoundary`] record finalizes its tenant's
/// incarnation at the boundary's horizon (reproducing the report the live
/// service delivered there) and restarts the engine fresh, exactly like
/// the live Report handler. Tenants whose final incarnation applied
/// events but never reported are finalized at `horizon` after the scan.
///
/// Replay is byte-identical to a second replay of the same range, and —
/// when the range covers the whole log and the original run started cold —
/// to the original service's reports: the WAL *is* the feed, and fault
/// decision streams are a pure function of (seed, site, lane, check
/// ordinal).
pub fn replay_wal(
    skynet: &SkyNet,
    dir: &Path,
    from_seq: u64,
    to_seq: Option<u64>,
    horizon: SimTime,
) -> Result<Vec<(String, AnalysisReport)>, ServeError> {
    let plane = FaultPlane::from_config(&skynet.cfg.faults, &skynet.obs);
    let records = WalReader::scan(dir)?;
    let fresh_engine = |name: &str, index: usize| TenantEngine::new(skynet, name, index, &plane);
    let mut engines: Vec<TenantEngine> = Vec::new();
    let mut reports: Vec<(String, AnalysisReport)> = Vec::new();
    for record in records {
        if record.seq < from_seq || to_seq.is_some_and(|hi| record.seq > hi) {
            continue;
        }
        let index = match engines.iter().position(|e| e.name == record.tenant) {
            Some(i) => i,
            None => {
                let index = engines.len();
                engines.push(fresh_engine(&record.tenant, index));
                index
            }
        };
        if let WalEvent::ReportBoundary(at) = record.event {
            let done = std::mem::replace(&mut engines[index], fresh_engine(&record.tenant, index));
            let report = done.engine.finish(skynet, at, plane.clone());
            reports.push((record.tenant, report));
            continue;
        }
        engines[index].apply(record.seq, record.event);
    }
    for engine in engines {
        if engine.last_applied_seq == 0 {
            // A post-boundary incarnation that applied nothing — the live
            // service delivered no report for it either.
            continue;
        }
        let report = engine.engine.finish(skynet, horizon, plane.clone());
        reports.push((engine.name, report));
    }
    Ok(reports)
}
