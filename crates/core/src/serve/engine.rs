//! One tenant's pipeline incarnation inside the ingest service: the shared
//! [`Engine`] plus what only a WAL-fed tenant has — a name, the applied-WAL
//! watermark and the [`WalEvent`] dispatch.

use super::snapshot::TenantSnapshot;
use super::wal::WalEvent;
use crate::engine::{Engine, EngineState};
use crate::faultinject::FaultPlane;
use crate::guard::DeadLetterQueue;
use crate::pipeline::SkyNet;
use parking_lot::Mutex;
use skynet_model::SimTime;
use std::sync::Arc;

/// Fault-injection lanes are striped per tenant so two tenants' decision
/// streams never interleave: tenant `i` owns lanes `[i*64, (i+1)*64)`,
/// with the shard-affine `locate-worker` site at `lane_base + shard`.
pub(crate) const TENANT_LANE_STRIDE: u32 = 64;

/// One tenant's full pipeline state, advanced one WAL event at a time.
pub(crate) struct TenantEngine {
    pub(super) name: String,
    /// The highest WAL sequence number applied so far.
    pub(super) last_applied_seq: u64,
    /// The tenant's pipeline clock (last tick applied).
    clock: SimTime,
    pub(super) engine: Engine,
}

impl TenantEngine {
    /// A fresh incarnation for `name` with its own empty dead-letter
    /// queue. `tenant_index` fixes the tenant's fault-lane stripe, so
    /// arming and replay are stable across restarts as long as tenants
    /// keep their admission order.
    pub(crate) fn new(
        skynet: &SkyNet,
        name: &str,
        tenant_index: usize,
        plane: &Option<Arc<FaultPlane>>,
    ) -> TenantEngine {
        let dead = Arc::new(Mutex::new(DeadLetterQueue::new(
            skynet.cfg.streaming.guard.dead_letter_capacity,
        )));
        TenantEngine {
            name: name.to_string(),
            last_applied_seq: 0,
            clock: SimTime::ZERO,
            engine: Engine::new(
                skynet,
                tenant_index as u32 * TENANT_LANE_STRIDE,
                dead,
                plane,
            ),
        }
    }

    /// Rebuilds an incarnation from a snapshot: fresh stages over the same
    /// topology, then each stage's serialized state restored onto it.
    pub(crate) fn restore(
        skynet: &SkyNet,
        tenant_index: usize,
        plane: &Option<Arc<FaultPlane>>,
        snap: TenantSnapshot,
    ) -> TenantEngine {
        let mut tenant = TenantEngine::new(skynet, &snap.name, tenant_index, plane);
        tenant.engine.restore(EngineState {
            guard: snap.guard,
            preprocess: snap.preprocess,
            locators: snap.locators,
            ping: snap.ping,
        });
        tenant.clock = snap.clock;
        tenant.last_applied_seq = snap.last_applied_seq;
        tenant
    }

    /// Applies one WAL event.
    pub(crate) fn apply(&mut self, seq: u64, event: WalEvent) {
        match event {
            WalEvent::Alert(raw) => self.engine.alert(raw),
            WalEvent::Ping(sample) => self.engine.ping(sample),
            WalEvent::Tick(now) => {
                self.engine.tick(now);
                self.clock = now;
            }
            WalEvent::ReportBoundary(_) => {
                // Incarnation boundaries are handled by the replay drivers
                // (which restart the engine); one reaching a live engine
                // directly is a no-op.
            }
        }
        self.last_applied_seq = self.last_applied_seq.max(seq);
    }

    /// Serializes the tenant for a service snapshot.
    pub(crate) fn snapshot(&self) -> TenantSnapshot {
        let state = self.engine.snapshot();
        TenantSnapshot {
            name: self.name.clone(),
            last_applied_seq: self.last_applied_seq,
            // The service stamps the real value — the engine never sees
            // the sequencer's counters.
            next_seq: 0,
            clock: self.clock,
            guard: state.guard,
            preprocess: state.preprocess,
            locators: state.locators,
            ping: state.ping,
        }
    }
}
