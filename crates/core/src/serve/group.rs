//! Group commit: amortizing WAL durability across every tenant's flood.
//!
//! The pre-group-commit service paid, per accepted event, one JSON
//! allocation, one acquisition of a global WAL mutex, and (under
//! [`FsyncPolicy::Always`](super::FsyncPolicy)) one full fsync before the
//! ack — so a single slow flush on one tenant stalled acks for everyone.
//! [`GroupWal`] splits that path in two:
//!
//! * **Sequencer** (every submitter, under the seq lock, *no I/O*):
//!   consult the `wal-append` fault arm, assign the tenant's next seq,
//!   encode the frame straight into the shared pending batch, and take a
//!   global *ordinal* — the position of this frame in total submit order.
//! * **Committer** (one dedicated thread, owns the [`WalWriter`] and all
//!   file I/O): swap out the entire pending batch, write every frame,
//!   settle the fsync policy **once per batch**, then publish the durable
//!   ordinal watermark and wake all waiting submitters.
//!
//! A submitter acks once `durable >= its ordinal` — its frame and every
//! frame enqueued before it are on the log (and synced per policy), which
//! keeps the append-before-ack contract exact while splitting one fsync
//! across however many submitters piled up during the previous flush.
//!
//! Determinism: fault-arm checks happen in the sequencer, one per
//! submission attempt, strictly in global submit order — the same
//! decision stream the per-append path consumed. A rejected submission
//! consumes no seq and writes nothing. Batching only changes *when*
//! frames reach the file, never their order or bytes.
//!
//! If a write or fsync fails the committer poisons itself: the durable
//! watermark freezes, no later frame is ever written (no holes can be
//! acked over), and every current and future waiter gets the error.

use super::wal::{encode_frame, WalEvent, WalWriter};
use super::ServeError;
use crate::faultinject::{FaultAction, FaultArm};
use crate::obs::{Counter, Histogram, Observability};
use parking_lot::{Condvar, Mutex};
use skynet_model::{SimTime, TraceId};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Power-of-two buckets for the frames-per-batch histogram: 1 frame per
/// batch means no amortization, hundreds means one fsync is covering a
/// whole flood's worth of acks.
const BATCH_BUCKETS: [f64; 10] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0];

/// One pre-encoded frame in the pending batch: `len` bytes of the shared
/// byte buffer, belonging to tenant id `tenant` at per-tenant seq `seq`.
struct Frame {
    len: u32,
    tenant: u32,
    seq: u64,
}

/// The pending work handed from sequencer to committer in one swap. Two
/// batches ping-pong (`pending`/`spare`), so steady-state submission
/// never allocates batch structures.
#[derive(Default)]
struct Batch {
    bytes: Vec<u8>,
    frames: Vec<Frame>,
    /// Tenant ids registered since the last swap, in id order — the
    /// committer appends them to its own name table before touching any
    /// frame that references them.
    new_names: Vec<(u32, String)>,
}

/// Control operations the committer executes after the batch's frames, in
/// ticket order.
enum Control {
    /// Raise per-tenant snapshot floors and run retention.
    Retain(Vec<(u32, u64)>),
}

/// Sequencer state: everything touched under the seq lock. No file I/O
/// ever happens while this is held.
struct SeqState {
    /// Tenant names by id — ids are dense indices, assigned at
    /// registration and never reused.
    names: Vec<String>,
    by_name: HashMap<String, u32>,
    /// Next seq per tenant id.
    next_seq: Vec<u64>,
    /// Startup seeds for tenants not yet registered (from the on-disk
    /// scan and the snapshot), consumed on registration.
    seeds: HashMap<String, u64>,
    pending: Batch,
    spare: Option<Batch>,
    controls: Vec<Control>,
    /// Tickets issued for controls; the committer reports progress via
    /// `CommitState::tickets_done`.
    tickets: u64,
    /// Global submit ordinal of the most recently enqueued frame.
    enqueued: u64,
    fault: Option<FaultArm>,
    shutdown: bool,
}

/// Committer progress: published under its own lock so waiters never
/// contend with submitters on the seq lock.
struct CommitState {
    /// Every frame with ordinal <= this is on the log, fsync policy
    /// settled. Frozen forever once `failed` is set.
    durable: u64,
    tickets_done: u64,
    failed: Option<String>,
}

struct GroupShared {
    seq: Mutex<SeqState>,
    /// Wakes the committer when frames or controls are pending.
    work_cv: Condvar,
    commit: Mutex<CommitState>,
    /// Wakes submitters when the durable watermark or ticket counter
    /// advances.
    durable_cv: Condvar,
    rejected: Counter,
    batch_size: Histogram,
}

/// The group-commit front of the WAL: many sequencing submitters, one
/// committing thread. Owned by the service; all its methods are safe to
/// call from any thread.
pub(super) struct GroupWal {
    shared: Arc<GroupShared>,
    committer: Mutex<Option<JoinHandle<()>>>,
}

impl GroupWal {
    /// Takes ownership of `writer` and spawns the committer thread.
    /// `seeds` maps tenant names to the first seq each should be assigned
    /// (from the startup scan and snapshot); unlisted tenants start at 1.
    pub(super) fn start(
        writer: WalWriter,
        fault: Option<FaultArm>,
        obs: &Observability,
        seeds: HashMap<String, u64>,
    ) -> GroupWal {
        let reg = obs.registry();
        let shared = Arc::new(GroupShared {
            seq: Mutex::new(SeqState {
                names: Vec::new(),
                by_name: HashMap::new(),
                next_seq: Vec::new(),
                seeds,
                pending: Batch::default(),
                spare: None,
                controls: Vec::new(),
                tickets: 0,
                enqueued: 0,
                fault,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            commit: Mutex::new(CommitState {
                durable: 0,
                tickets_done: 0,
                failed: None,
            }),
            durable_cv: Condvar::new(),
            rejected: reg.counter(
                "skynet_wal_rejected_total",
                "appends rejected by an injected wal-append fault",
            ),
            batch_size: reg.histogram(
                "skynet_wal_batch_size",
                None,
                &BATCH_BUCKETS,
                "frames committed per WAL group-commit batch",
            ),
        });
        let committer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("skynet-wal-commit".into())
                .spawn(move || run_committer(&shared, writer))
                .expect("spawning the WAL committer thread")
        };
        GroupWal {
            shared,
            committer: Mutex::new(Some(committer)),
        }
    }

    /// Registers (or looks up) a tenant and returns its dense id. The
    /// tenant's numbering starts at its seed, or 1 if it has none.
    pub(super) fn register(&self, name: &str) -> u32 {
        let mut s = self.shared.seq.lock();
        if let Some(&id) = s.by_name.get(name) {
            return id;
        }
        let id = s.names.len() as u32;
        let start = s.seeds.remove(name).unwrap_or(1).max(1);
        s.names.push(name.to_string());
        s.by_name.insert(name.to_string(), id);
        s.next_seq.push(start);
        s.pending.new_names.push((id, name.to_string()));
        id
    }

    /// Sequences one submission: consults the `wal-append` fault arm (in
    /// global submit order — the decision stream replay reproduces),
    /// assigns the tenant's seq, and enqueues the pre-encoded frame.
    /// Returns `(seq, ordinal)`; the record is acked only after
    /// [`Self::wait_durable`] on the ordinal. A rejected submission
    /// consumes no seq and enqueues nothing.
    pub(super) fn begin_submit(
        &self,
        tenant: u32,
        event: &WalEvent,
        at: SimTime,
    ) -> Result<(u64, u64), ServeError> {
        self.begin(tenant, event, at, true)
    }

    /// [`Self::begin_submit`] without the fault arm — for control records
    /// (report boundaries) that are service flow, not tenant data: they
    /// must neither consume a slot in nor be vetoed by the injected
    /// decision stream, or replay fast-forwarding would drift.
    pub(super) fn begin_submit_unchecked(
        &self,
        tenant: u32,
        event: &WalEvent,
    ) -> Result<(u64, u64), ServeError> {
        self.begin(tenant, event, SimTime::ZERO, false)
    }

    fn begin(
        &self,
        tenant: u32,
        event: &WalEvent,
        at: SimTime,
        checked: bool,
    ) -> Result<(u64, u64), ServeError> {
        let mut s = self.shared.seq.lock();
        if s.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        if checked {
            if let Some(arm) = s.fault.clone() {
                match arm.check(TraceId::NONE, at) {
                    Some(FaultAction::Error) => {
                        self.shared.rejected.inc();
                        return Err(ServeError::WalRejected);
                    }
                    Some(FaultAction::Panic) => arm.panic_now(),
                    Some(FaultAction::Latency(ms)) => crate::faultinject::sleep_ms(ms),
                    None => {}
                }
            }
        }
        let state = &mut *s;
        let seq = state.next_seq[tenant as usize];
        let len = encode_frame(
            &mut state.pending.bytes,
            seq,
            &state.names[tenant as usize],
            event,
        )?;
        state.next_seq[tenant as usize] = seq + 1;
        state.pending.frames.push(Frame { len, tenant, seq });
        state.enqueued += 1;
        let ordinal = state.enqueued;
        drop(s);
        self.shared.work_cv.notify_one();
        Ok((seq, ordinal))
    }

    /// Blocks until every frame up to `ordinal` is on the log with the
    /// fsync policy settled — the moment an ack becomes honest. Call with
    /// no other service locks held.
    pub(super) fn wait_durable(&self, ordinal: u64) -> Result<(), ServeError> {
        let mut c = self.shared.commit.lock();
        loop {
            if c.durable >= ordinal {
                return Ok(());
            }
            if let Some(msg) = &c.failed {
                return Err(ServeError::Corrupt(format!("WAL commit failed: {msg}")));
            }
            self.shared.durable_cv.wait(&mut c);
        }
    }

    /// Raises per-tenant snapshot floors and runs retention on the
    /// committer thread, synchronously.
    pub(super) fn retain_after_snapshot(&self, floors: &[(String, u64)]) -> Result<(), ServeError> {
        let resolved: Vec<(u32, u64)> = {
            let s = self.shared.seq.lock();
            floors
                .iter()
                .filter_map(|(name, seq)| s.by_name.get(name).map(|&id| (id, *seq)))
                .collect()
        };
        self.control(Control::Retain(resolved))
    }

    fn control(&self, control: Control) -> Result<(), ServeError> {
        let ticket = {
            let mut s = self.shared.seq.lock();
            if s.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            s.controls.push(control);
            s.tickets += 1;
            s.tickets
        };
        self.shared.work_cv.notify_one();
        let mut c = self.shared.commit.lock();
        loop {
            if let Some(msg) = &c.failed {
                return Err(ServeError::Corrupt(format!("WAL commit failed: {msg}")));
            }
            if c.tickets_done >= ticket {
                return Ok(());
            }
            self.shared.durable_cv.wait(&mut c);
        }
    }

    /// Every registered tenant's next sequence number — what snapshots
    /// persist so a restart resumes numbering exactly.
    pub(super) fn tenant_next_seqs(&self) -> Vec<(String, u64)> {
        let s = self.shared.seq.lock();
        s.names
            .iter()
            .cloned()
            .zip(s.next_seq.iter().copied())
            .collect()
    }

    /// Stops accepting submissions, drains whatever is pending, final-syncs
    /// and joins the committer. Idempotent.
    pub(super) fn shutdown(&self) {
        {
            let mut s = self.shared.seq.lock();
            s.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        if let Some(handle) = self.committer.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for GroupWal {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn run_committer(shared: &GroupShared, mut writer: WalWriter) {
    // The committer's own copy of the tenant name table, grown from each
    // batch's registrations — so writing frames touches no shared state.
    let mut names: Vec<String> = Vec::new();
    let mut poisoned = false;
    loop {
        let (mut batch, controls, exit) = {
            let mut s = shared.seq.lock();
            loop {
                if !s.pending.frames.is_empty()
                    || !s.pending.new_names.is_empty()
                    || !s.controls.is_empty()
                {
                    let spare = s.spare.take().unwrap_or_default();
                    let batch = std::mem::replace(&mut s.pending, spare);
                    let controls = std::mem::take(&mut s.controls);
                    break (batch, controls, false);
                }
                if s.shutdown {
                    break (Batch::default(), Vec::new(), true);
                }
                shared.work_cv.wait(&mut s);
            }
        };
        if exit {
            let _ = writer.sync();
            break;
        }
        for (id, name) in batch.new_names.drain(..) {
            debug_assert_eq!(id as usize, names.len(), "tenant ids arrive in order");
            names.push(name);
        }
        let mut error: Option<String> = None;
        let mut written = 0u64;
        if poisoned {
            error = Some("a previous commit failed; the log is frozen".to_string());
        } else {
            let mut off = 0usize;
            for frame in &batch.frames {
                let end = off + frame.len as usize;
                let bytes = &batch.bytes[off..end];
                off = end;
                match writer.write_frame(bytes, &names[frame.tenant as usize], frame.seq) {
                    Ok(()) => written += 1,
                    Err(e) => {
                        error = Some(e.to_string());
                        break;
                    }
                }
            }
            if error.is_none() && written > 0 {
                shared.batch_size.observe(written as f64);
                if let Err(e) = writer.apply_fsync_policy(written) {
                    error = Some(e.to_string());
                }
            }
        }
        let tickets_done = controls.len() as u64;
        for control in &controls {
            if error.is_some() {
                continue;
            }
            let Control::Retain(floors) = control;
            let resolved: Vec<(&str, u64)> = floors
                .iter()
                .map(|(id, seq)| (names[*id as usize].as_str(), *seq))
                .collect();
            if let Err(e) = writer.retain_after_snapshot(&resolved) {
                error = Some(e.to_string());
            }
        }
        {
            let mut c = shared.commit.lock();
            // Durability only advances on a clean batch: a failed batch
            // acks nothing (even frames written before the failure — they
            // are on the log but unacked, the ordinary crash posture) and
            // the watermark freezes so no later frame acks over a hole.
            if error.is_none() {
                c.durable += written;
            }
            c.tickets_done += tickets_done;
            if let Some(e) = error {
                poisoned = true;
                if c.failed.is_none() {
                    c.failed = Some(e);
                }
            }
        }
        shared.durable_cv.notify_all();
        batch.bytes.clear();
        batch.frames.clear();
        {
            let mut s = shared.seq.lock();
            s.spare = Some(batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::wal::WalReader;
    use super::super::{FsyncPolicy, ServeConfig};
    use super::*;
    use std::path::{Path, PathBuf};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("skynet-group-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cfg(dir: &Path) -> ServeConfig {
        ServeConfig::new(dir).with_fsync(FsyncPolicy::Never)
    }

    fn start(dir: &Path, seeds: HashMap<String, u64>) -> GroupWal {
        let obs = Observability::default();
        let writer = WalWriter::create(&cfg(dir), &obs).unwrap();
        GroupWal::start(writer, None, &obs, seeds)
    }

    #[test]
    fn group_submits_land_in_enqueue_order_with_per_tenant_seqs() {
        let dir = tmp_dir("order");
        let gw = start(&dir, HashMap::new());
        let a = gw.register("a");
        let b = gw.register("b");
        let mut last_ordinal = 0;
        for i in 0..5u64 {
            let (seq, ord) = gw
                .begin_submit(a, &WalEvent::Tick(SimTime::from_secs(i)), SimTime::ZERO)
                .unwrap();
            assert_eq!(seq, i + 1);
            let (seq, ord_b) = gw
                .begin_submit(b, &WalEvent::Tick(SimTime::from_secs(i)), SimTime::ZERO)
                .unwrap();
            assert_eq!(seq, i + 1);
            assert_eq!(ord_b, ord + 1);
            last_ordinal = ord_b;
        }
        gw.wait_durable(last_ordinal).unwrap();
        gw.shutdown();
        let records = WalReader::scan(&dir).unwrap();
        assert_eq!(records.len(), 10);
        for (i, pair) in records.chunks(2).enumerate() {
            assert_eq!((pair[0].tenant.as_str(), pair[0].seq), ("a", i as u64 + 1));
            assert_eq!((pair[1].tenant.as_str(), pair[1].seq), ("b", i as u64 + 1));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeds_resume_tenant_numbering() {
        let dir = tmp_dir("seeds");
        let gw = start(&dir, HashMap::from([("warm".to_string(), 7u64)]));
        let warm = gw.register("warm");
        let cold = gw.register("cold");
        let (seq, ord) = gw
            .begin_submit(warm, &WalEvent::Tick(SimTime::ZERO), SimTime::ZERO)
            .unwrap();
        assert_eq!(seq, 7);
        let (cold_seq, cold_ord) = gw
            .begin_submit(cold, &WalEvent::Tick(SimTime::ZERO), SimTime::ZERO)
            .unwrap();
        assert_eq!(cold_seq, 1);
        gw.wait_durable(ord.max(cold_ord)).unwrap();
        assert_eq!(
            gw.tenant_next_seqs(),
            vec![("warm".to_string(), 8), ("cold".to_string(), 2)]
        );
        gw.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_submitters_keep_per_tenant_seqs_dense() {
        let dir = tmp_dir("threads");
        let gw = start(&dir, HashMap::new());
        let ids: Vec<u32> = (0..4).map(|i| gw.register(&format!("t{i}"))).collect();
        std::thread::scope(|scope| {
            for &id in &ids {
                let gw = &gw;
                scope.spawn(move || {
                    for i in 0..50u64 {
                        let (_, ord) = gw
                            .begin_submit(id, &WalEvent::Tick(SimTime::from_secs(i)), SimTime::ZERO)
                            .unwrap();
                        gw.wait_durable(ord).unwrap();
                    }
                });
            }
        });
        gw.shutdown();
        let records = WalReader::scan(&dir).unwrap();
        assert_eq!(records.len(), 200);
        for id in 0..4 {
            let seqs: Vec<u64> = records
                .iter()
                .filter(|r| r.tenant == format!("t{id}"))
                .map(|r| r.seq)
                .collect();
            assert_eq!(seqs, (1..=50).collect::<Vec<u64>>());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_rejects_new_submissions() {
        let dir = tmp_dir("shutdown");
        let gw = start(&dir, HashMap::new());
        let a = gw.register("a");
        gw.shutdown();
        assert!(matches!(
            gw.begin_submit(a, &WalEvent::Tick(SimTime::ZERO), SimTime::ZERO),
            Err(ServeError::ShuttingDown)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
