//! The segmented write-ahead log behind the ingest service.
//!
//! Every accepted event is appended — and CRC-framed — *before* the
//! tenant's connection sees an ack, so the feed survives a crash of the
//! service process: `skynet replay` (or a warm restart) re-reads the
//! segments and re-ingests any seq range byte-identically.
//!
//! Record framing, per record:
//!
//! ```text
//! [u32 le payload length][u32 le CRC-32 of payload][payload JSON bytes]
//! ```
//!
//! The payload is one [`WalRecord`] serialized as JSON, so segments are
//! greppable with standard tooling despite the binary frame. Segments
//! rotate at [`ServeConfig::segment_max_bytes`](super::ServeConfig) and
//! old segments are deleted once a snapshot covers every record in them
//! (retention never outruns replayability). A torn final frame — the
//! classic crash-mid-write artifact — is detected by the length/CRC check
//! and dropped; everything acked before it is intact because acks follow
//! the write.
//!
//! Sequence numbers are **per tenant**: each tenant's records carry their
//! own dense `1, 2, 3, …` numbering, so one tenant's acks say nothing
//! about another's traffic and `replay --from-seq` windows are
//! tenant-scoped. Old segments written under the pre-group-commit global
//! numbering load unchanged — the startup scan simply takes each tenant's
//! highest seq as its high-water mark, which coincides with the old
//! behavior for single-tenant logs and is a strict upper bound otherwise.
//!
//! Under the service this writer never syncs per append: the group
//! committer (`super::service`) batches pre-encoded frames from every
//! tenant through `WalWriter::write_frame` and amortizes one fsync per
//! batch via `WalWriter::apply_fsync_policy`.

use super::{ServeConfig, ServeError};
use crate::obs::{Counter, Observability};
use serde::{Deserialize, Serialize};
use skynet_model::{PingSample, RawAlert, SimTime};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// CRC-32 (IEEE 802.3 polynomial), table-driven, built at compile time —
/// no external dependency and no startup cost.
const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            j += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// The CRC-32 checksum framing every WAL payload.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// One event as the write-ahead log records it — everything a tenant feeds
/// the service, in the exact form the pipeline will consume on replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalEvent {
    /// A raw alert from any monitoring tool.
    Alert(RawAlert),
    /// A lossy ping sample for the reachability matrix.
    Ping(PingSample),
    /// A clock advance: drives guard watermarks and locator timeouts
    /// through quiet periods, exactly like the streaming runtime's tick.
    Tick(SimTime),
    /// A control record marking a delivered report for this tenant at the
    /// carried horizon: every earlier record of the tenant belongs to the
    /// finalized incarnation, so a restart or replay must never feed them
    /// into the fresh one. Written by the service itself (never by a
    /// tenant feed) and exempt from the `wal-append` fault arm.
    ReportBoundary(SimTime),
}

/// One framed WAL record: the tenant's sequence number, the tenant the
/// event belongs to, and the event itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalRecord {
    /// Per-tenant append sequence number (dense and monotonic within the
    /// tenant's feed; the ack returned to the tenant). Segments written
    /// before per-tenant numbering carry globally-monotonic values here —
    /// still strictly increasing per tenant, which is all replay needs.
    pub seq: u64,
    /// The tenant whose feed this record belongs to.
    pub tenant: String,
    /// The recorded event.
    pub event: WalEvent,
}

/// Borrowing mirror of [`WalRecord`] for encoding. Field names and order
/// match exactly, so the serialized JSON is byte-identical to an owned
/// record — without cloning the tenant name or the event per append.
#[derive(Serialize)]
struct WalRecordRef<'a> {
    seq: u64,
    tenant: &'a str,
    event: &'a WalEvent,
}

/// Encodes one `[len][crc][payload]` frame onto the end of `buf`,
/// serializing the payload straight into the buffer and backfilling the
/// header — zero allocations once `buf` has warmed capacity. Returns the
/// framed length in bytes; on error `buf` is truncated back to where it
/// started.
pub(crate) fn encode_frame(
    buf: &mut Vec<u8>,
    seq: u64,
    tenant: &str,
    event: &WalEvent,
) -> Result<u32, ServeError> {
    let start = buf.len();
    buf.extend_from_slice(&[0u8; 8]);
    let record = WalRecordRef { seq, tenant, event };
    if let Err(e) = serde_json::to_writer(&mut *buf, &record) {
        buf.truncate(start);
        return Err(ServeError::Corrupt(e.to_string()));
    }
    let payload_len = (buf.len() - start - 8) as u32;
    let crc = crc32(&buf[start + 8..]);
    buf[start..start + 4].copy_from_slice(&payload_len.to_le_bytes());
    buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    Ok(payload_len + 8)
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("{index:08}.wal"))
}

fn parse_segment_index(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let stem = name.strip_suffix(".wal")?;
    stem.parse().ok()
}

/// Sorted `(index, path)` list of every WAL segment in `dir`. A missing
/// directory is an empty log, not an error — the writer creates it.
fn segments_in(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(segments),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let path = entry?.path();
        if let Some(index) = parse_segment_index(&path) {
            segments.push((index, path));
        }
    }
    segments.sort_by_key(|(index, _)| *index);
    Ok(segments)
}

/// When appends are flushed to durable storage.
///
/// The policy trades ack latency against the window of acked-but-unsynced
/// records an OS crash could lose. A *process* crash loses nothing under
/// any policy — the records are already in the page cache. Under the
/// service's group committer the unit is a *batch*, not an append: `Always`
/// means one fsync per committed batch (covering every frame in it), which
/// is what amortizes durability across a flood.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FsyncPolicy {
    /// `fsync` after every append (batch) — maximum durability.
    Always,
    /// `fsync` every N appends (and on rotation/shutdown) — the default,
    /// bounding the loss window to N acks.
    EveryN(u64),
    /// Never `fsync` explicitly; leave flushing to the OS.
    Never,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::EveryN(64)
    }
}

struct WalMetrics {
    appends: Counter,
    bytes: Counter,
    fsyncs: Counter,
    segments: Counter,
}

impl WalMetrics {
    fn registered(obs: &Observability) -> Self {
        let reg = obs.registry();
        WalMetrics {
            appends: reg.counter("skynet_wal_appends_total", "records appended to the WAL"),
            bytes: reg.counter("skynet_wal_bytes_total", "framed bytes appended to the WAL"),
            fsyncs: reg.counter("skynet_wal_fsyncs_total", "fsyncs issued by the WAL writer"),
            segments: reg.counter("skynet_wal_segments_total", "WAL segments opened"),
        }
    }
}

/// One closed segment still on disk, with the *cumulative* per-tenant
/// highest seq as of the moment it closed. Every record in the segment
/// sits at or below its tenant's entry, so the segment is reclaimable
/// once a snapshot floor covers every entry. Record-less segments carry
/// their predecessor's map unchanged, which keeps them reclaimable too.
struct ClosedSegment {
    index: u64,
    maxima: HashMap<String, u64>,
}

/// The append side of the segmented WAL. The service owns exactly one,
/// driven single-threaded by the group committer; `append` is the
/// standalone all-in-one path for tools, benchmarks and tests.
pub struct WalWriter {
    dir: PathBuf,
    segment_max_bytes: u64,
    retain_segments: usize,
    fsync: FsyncPolicy,
    file: File,
    current_index: u64,
    current_len: u64,
    appends_since_sync: u64,
    /// Per-tenant next seq for this writer's own `append` path. The
    /// service's sequencer keeps its own counters and hands pre-assigned
    /// seqs to `write_frame`, so under the service this map only tracks
    /// what landed on disk via `written_max`.
    next_seq: HashMap<String, u64>,
    /// Cumulative per-tenant highest seq ever written by this writer (or
    /// found on disk at open) — snapshotted into `closed` on rotation.
    written_max: HashMap<String, u64>,
    /// Closed segments still on disk, oldest first — what retention
    /// reasons over.
    closed: Vec<ClosedSegment>,
    /// Per-tenant snapshot floors: a durable snapshot covers every record
    /// of tenant `t` with `seq <= floors[t]`.
    floors: HashMap<String, u64>,
    metrics: WalMetrics,
    scratch: Vec<u8>,
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("dir", &self.dir)
            .field("current_index", &self.current_index)
            .field("tenants", &self.next_seq.len())
            .finish_non_exhaustive()
    }
}

impl WalWriter {
    /// Opens a standalone writer over `cfg.wal_dir`, resuming each
    /// tenant's sequence numbering from whatever segments already exist.
    pub fn create(cfg: &ServeConfig, obs: &Observability) -> Result<WalWriter, ServeError> {
        let (existing, next_seq) = WalReader::summarize(&cfg.wal_dir)?;
        WalWriter::open(cfg, obs, existing, next_seq)
    }

    /// Opens a fresh segment in `cfg.wal_dir`, continuing after whatever
    /// segments already exist there — record-bearing or not. `existing` is
    /// the startup scan's per-segment summary (so retention can reason
    /// about them) and `next_seq` each tenant's first sequence number.
    pub(crate) fn open(
        cfg: &ServeConfig,
        obs: &Observability,
        existing: Vec<SegmentSummary>,
        next_seq: HashMap<String, u64>,
    ) -> Result<WalWriter, ServeError> {
        fs::create_dir_all(&cfg.wal_dir)?;
        // The new head index comes from the *directory*, not the record
        // summary: the summary skips record-less segments (an idle run's
        // head, a crash right after rotation, a torn first record), and
        // opening with create_new over one of those would refuse to start
        // in exactly the crash scenarios the WAL exists to survive.
        let segments = segments_in(&cfg.wal_dir)?;
        let current_index = segments.last().map_or(0, |(index, _)| index + 1);
        // Every on-disk segment is closed from this writer's perspective.
        // The cumulative maxima build up in directory order; record-less
        // segments inherit the running map so retention can still reclaim
        // them once a snapshot covers their predecessors.
        let mut closed = Vec::with_capacity(segments.len());
        let mut cumulative: HashMap<String, u64> = HashMap::new();
        for (index, _) in &segments {
            if let Some(summary) = existing.iter().find(|s| s.index == *index) {
                for (tenant, max) in &summary.maxima {
                    let slot = cumulative.entry(tenant.clone()).or_insert(0);
                    *slot = (*slot).max(*max);
                }
            }
            closed.push(ClosedSegment {
                index: *index,
                maxima: cumulative.clone(),
            });
        }
        let metrics = WalMetrics::registered(obs);
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(segment_path(&cfg.wal_dir, current_index))?;
        metrics.segments.inc();
        Ok(WalWriter {
            dir: cfg.wal_dir.clone(),
            segment_max_bytes: cfg.segment_max_bytes.max(1),
            retain_segments: cfg.retain_segments,
            fsync: cfg.fsync,
            file,
            current_index,
            current_len: 0,
            appends_since_sync: 0,
            next_seq,
            written_max: cumulative,
            closed,
            floors: HashMap::new(),
            metrics,
            scratch: Vec::with_capacity(256),
        })
    }

    /// The sequence number this writer's `append` would assign next for
    /// `tenant`.
    pub fn next_seq_for(&self, tenant: &str) -> u64 {
        self.next_seq.get(tenant).copied().unwrap_or(1)
    }

    /// Appends one record and returns its sequence number — the ack. The
    /// record is on the log (and fsynced per policy) before this returns,
    /// which is what makes the ack honest. Steady-state appends allocate
    /// nothing: the frame is encoded into a reusable scratch buffer and
    /// the per-tenant counters hit existing map entries.
    pub fn append(&mut self, tenant: &str, event: &WalEvent) -> Result<u64, ServeError> {
        let seq = self.next_seq_for(tenant);
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let outcome = encode_frame(&mut scratch, seq, tenant, event)
            .and_then(|_| self.write_frame(&scratch, tenant, seq));
        self.scratch = scratch;
        outcome?;
        match self.next_seq.get_mut(tenant) {
            Some(next) => *next = seq + 1,
            None => {
                self.next_seq.insert(tenant.to_string(), seq + 1);
            }
        }
        self.apply_fsync_policy(1)?;
        Ok(seq)
    }

    /// Writes one pre-encoded frame (one record for `tenant` at `seq`),
    /// rotating the segment if it fills. No fsync — the caller batches
    /// frames and settles durability once via [`Self::apply_fsync_policy`].
    pub(crate) fn write_frame(
        &mut self,
        frame: &[u8],
        tenant: &str,
        seq: u64,
    ) -> Result<(), ServeError> {
        self.file.write_all(frame)?;
        self.current_len += frame.len() as u64;
        self.metrics.appends.inc();
        self.metrics.bytes.add(frame.len() as u64);
        match self.written_max.get_mut(tenant) {
            Some(max) => *max = (*max).max(seq),
            None => {
                self.written_max.insert(tenant.to_string(), seq);
            }
        }
        if self.current_len >= self.segment_max_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    /// Settles the fsync policy after `appended` frames landed: `Always`
    /// syncs once for the whole batch — the group-commit amortization —
    /// and `EveryN` counts frames, not batches.
    pub(crate) fn apply_fsync_policy(&mut self, appended: u64) -> Result<(), ServeError> {
        match self.fsync {
            FsyncPolicy::Always => self.sync(),
            FsyncPolicy::EveryN(n) => {
                self.appends_since_sync += appended;
                if self.appends_since_sync >= n.max(1) {
                    self.sync()
                } else {
                    Ok(())
                }
            }
            FsyncPolicy::Never => Ok(()),
        }
    }

    /// Raises per-tenant snapshot floors (a durable snapshot now covers
    /// every record of each listed tenant up to the given seq) and applies
    /// retention: closed segments beyond the retention count whose records
    /// are all covered are deleted, oldest first.
    pub fn retain_after_snapshot(&mut self, floors: &[(&str, u64)]) -> Result<(), ServeError> {
        for (tenant, seq) in floors {
            match self.floors.get_mut(*tenant) {
                Some(floor) => *floor = (*floor).max(*seq),
                None => {
                    self.floors.insert((*tenant).to_string(), *seq);
                }
            }
        }
        while self.closed.len() > self.retain_segments {
            let covered = self.closed[0]
                .maxima
                .iter()
                .all(|(tenant, max)| self.floors.get(tenant).is_some_and(|floor| max <= floor));
            if !covered {
                break;
            }
            let index = self.closed[0].index;
            fs::remove_file(segment_path(&self.dir, index))?;
            self.closed.remove(0);
        }
        Ok(())
    }

    /// Forces an fsync of the current segment.
    pub fn sync(&mut self) -> Result<(), ServeError> {
        self.file.sync_data()?;
        self.metrics.fsyncs.inc();
        self.appends_since_sync = 0;
        Ok(())
    }

    fn rotate(&mut self) -> Result<(), ServeError> {
        self.sync()?;
        self.closed.push(ClosedSegment {
            index: self.current_index,
            maxima: self.written_max.clone(),
        });
        self.current_index += 1;
        self.file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(segment_path(&self.dir, self.current_index))?;
        self.current_len = 0;
        self.metrics.segments.inc();
        Ok(())
    }
}

/// Startup-scan summary of one on-disk segment: the highest seq each
/// tenant reached within it (non-cumulative — [`WalWriter::open`] folds
/// the running maxima).
pub(crate) struct SegmentSummary {
    pub(crate) index: u64,
    pub(crate) maxima: Vec<(String, u64)>,
}

/// The read side: scans a WAL directory back into records.
#[derive(Debug)]
pub struct WalReader;

impl WalReader {
    /// Every intact record in `dir`, in append order. A torn or corrupt
    /// frame ends its segment's scan — everything before it is returned,
    /// everything after it in that segment is unreachable (the frame
    /// lengths are gone), and later segments still scan.
    pub fn scan(dir: &Path) -> Result<Vec<WalRecord>, ServeError> {
        let mut records = Vec::new();
        for (_, path) in segments_in(dir)? {
            let mut bytes = Vec::new();
            File::open(&path)?.read_to_end(&mut bytes)?;
            let mut off = 0usize;
            while off + 8 <= bytes.len() {
                let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
                let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
                let Some(payload) = bytes.get(off + 8..off + 8 + len) else {
                    break; // torn tail: the frame outruns the file
                };
                if crc32(payload) != crc {
                    break; // corrupt frame: stop before trusting it
                }
                let record: WalRecord = serde_json::from_slice(payload)
                    .map_err(|e| ServeError::Corrupt(format!("{}: {e}", path.display())))?;
                records.push(record);
                off += 8 + len;
            }
        }
        Ok(records)
    }

    /// The startup summary [`WalWriter::open`] wants: every record-bearing
    /// segment's per-tenant maxima, plus each tenant's overall next
    /// sequence number. This is also the migration shim for segments
    /// written under the old global numbering — each tenant resumes past
    /// its highest recorded seq, whatever scheme assigned it.
    pub(crate) fn summarize(
        dir: &Path,
    ) -> Result<(Vec<SegmentSummary>, HashMap<String, u64>), ServeError> {
        let mut summary = Vec::new();
        let mut next: HashMap<String, u64> = HashMap::new();
        for (index, path) in segments_in(dir)? {
            let mut bytes = Vec::new();
            File::open(&path)?.read_to_end(&mut bytes)?;
            let mut off = 0usize;
            let mut maxima: Vec<(String, u64)> = Vec::new();
            while off + 8 <= bytes.len() {
                let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
                let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
                let Some(payload) = bytes.get(off + 8..off + 8 + len) else {
                    break;
                };
                if crc32(payload) != crc {
                    break;
                }
                let record: WalRecord = serde_json::from_slice(payload)
                    .map_err(|e| ServeError::Corrupt(format!("{}: {e}", path.display())))?;
                match maxima.iter_mut().find(|(t, _)| *t == record.tenant) {
                    Some((_, max)) => *max = (*max).max(record.seq),
                    None => maxima.push((record.tenant.clone(), record.seq)),
                }
                let slot = next.entry(record.tenant).or_insert(1);
                *slot = (*slot).max(record.seq + 1);
                off += 8 + len;
            }
            if !maxima.is_empty() {
                summary.push(SegmentSummary { index, maxima });
            }
        }
        Ok((summary, next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skynet_model::{AlertKind, DataSource, LocationPath};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("skynet-wal-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn alert(secs: u64) -> WalEvent {
        WalEvent::Alert(RawAlert::known(
            DataSource::Snmp,
            SimTime::from_secs(secs),
            LocationPath::parse("R|C|L|S|K|d1").unwrap(),
            AlertKind::LinkDown,
        ))
    }

    fn cfg(dir: &Path) -> ServeConfig {
        ServeConfig::new(dir)
            .with_segment_max_bytes(400)
            .with_fsync(FsyncPolicy::Never)
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn encode_frame_matches_owned_record_serialization() {
        let event = alert(7);
        let mut buf = Vec::new();
        let framed = encode_frame(&mut buf, 3, "t", &event).unwrap();
        assert_eq!(framed as usize, buf.len());
        let owned = serde_json::to_vec(&WalRecord {
            seq: 3,
            tenant: "t".to_string(),
            event: event.clone(),
        })
        .unwrap();
        assert_eq!(&buf[8..], &owned[..], "ref and owned encodings diverge");
        assert_eq!(
            u32::from_le_bytes(buf[4..8].try_into().unwrap()),
            crc32(&owned)
        );
    }

    #[test]
    fn appends_rotate_and_scan_back_in_order() {
        let dir = tmp_dir("roundtrip");
        let obs = Observability::default();
        let mut writer = WalWriter::open(&cfg(&dir), &obs, Vec::new(), HashMap::new()).unwrap();
        for i in 0..10u64 {
            let seq = writer.append("tenant-a", &alert(i)).unwrap();
            assert_eq!(seq, i + 1);
        }
        // 400-byte segments force several rotations.
        assert!(segments_in(&dir).unwrap().len() > 1);
        let records = WalReader::scan(&dir).unwrap();
        assert_eq!(records.len(), 10);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
            assert_eq!(r.tenant, "tenant-a");
            assert_eq!(r.event, alert(i as u64));
        }
        let (summary, next) = WalReader::summarize(&dir).unwrap();
        assert_eq!(next.get("tenant-a").copied(), Some(11));
        assert!(!summary.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sequences_are_per_tenant() {
        let dir = tmp_dir("per-tenant");
        let obs = Observability::default();
        let mut writer = WalWriter::create(&cfg(&dir), &obs).unwrap();
        assert_eq!(writer.append("a", &alert(0)).unwrap(), 1);
        assert_eq!(writer.append("b", &alert(1)).unwrap(), 1);
        assert_eq!(writer.append("a", &alert(2)).unwrap(), 2);
        assert_eq!(writer.append("b", &alert(3)).unwrap(), 2);
        assert_eq!(writer.next_seq_for("a"), 3);
        assert_eq!(writer.next_seq_for("unseen"), 1);
        drop(writer);
        // Records interleave on disk in append order, each tenant's seqs
        // dense on their own axis.
        let seqs: Vec<(String, u64)> = WalReader::scan(&dir)
            .unwrap()
            .into_iter()
            .map(|r| (r.tenant, r.seq))
            .collect();
        assert_eq!(
            seqs,
            vec![
                ("a".into(), 1),
                ("b".into(), 1),
                ("a".into(), 2),
                ("b".into(), 2)
            ]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_global_seq_segments_migrate() {
        let dir = tmp_dir("migrate");
        let obs = Observability::default();
        // Hand-craft a segment in the pre-per-tenant format: one global
        // monotonic numbering shared across tenants.
        let mut buf = Vec::new();
        encode_frame(&mut buf, 1, "a", &alert(0)).unwrap();
        encode_frame(&mut buf, 2, "b", &alert(1)).unwrap();
        encode_frame(&mut buf, 3, "a", &alert(2)).unwrap();
        fs::write(segment_path(&dir, 0), &buf).unwrap();
        let (_, next) = WalReader::summarize(&dir).unwrap();
        assert_eq!(next.get("a").copied(), Some(4));
        assert_eq!(next.get("b").copied(), Some(3));
        // A new writer resumes each tenant past its old high-water mark.
        let mut writer = WalWriter::create(&cfg(&dir), &obs).unwrap();
        assert_eq!(writer.append("a", &alert(3)).unwrap(), 4);
        assert_eq!(writer.append("b", &alert(4)).unwrap(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let dir = tmp_dir("torn");
        let obs = Observability::default();
        let mut writer = WalWriter::open(
            &ServeConfig::new(&dir).with_fsync(FsyncPolicy::Never),
            &obs,
            Vec::new(),
            HashMap::new(),
        )
        .unwrap();
        for i in 0..3u64 {
            writer.append("t", &alert(i)).unwrap();
        }
        drop(writer);
        // Simulate a crash mid-write: chop bytes off the segment tail.
        let (_, path) = segments_in(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 7).unwrap();
        let records = WalReader::scan(&dir).unwrap();
        assert_eq!(records.len(), 2, "the torn third record is dropped");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_survives_record_less_head_segments() {
        let dir = tmp_dir("empty-head");
        let obs = Observability::default();
        // Two idle runs in a row leave two record-less segments behind;
        // each reopen must pick a fresh index instead of colliding with
        // the stale file (regression: AlreadyExists on warm restart).
        for _ in 0..2 {
            let writer = WalWriter::create(&cfg(&dir), &obs).expect("reopen over empty head");
            drop(writer);
        }
        assert_eq!(segments_in(&dir).unwrap().len(), 2);
        // A run that finally appends still numbers from seq 1 and scans.
        let mut writer = WalWriter::create(&cfg(&dir), &obs).unwrap();
        let seq = writer.append("t", &alert(0)).unwrap();
        assert_eq!(seq, 1);
        drop(writer);
        // And a crash right after rotation (head exists, no records in it)
        // reopens too: simulate by creating the next bare segment file.
        let next = segments_in(&dir).unwrap().last().unwrap().0 + 1;
        File::create(segment_path(&dir, next)).unwrap();
        let writer = WalWriter::create(&cfg(&dir), &obs).expect("reopen past bare rotation");
        assert_eq!(writer.next_seq_for("t"), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_reclaims_record_less_segments_once_covered() {
        let dir = tmp_dir("empty-retention");
        let obs = Observability::default();
        {
            let mut writer = WalWriter::create(&cfg(&dir).with_retain_segments(0), &obs).unwrap();
            for i in 0..10u64 {
                writer.append("t", &alert(i)).unwrap();
            }
        }
        // An idle restart leaves a record-less head behind the new one.
        drop(WalWriter::create(&cfg(&dir).with_retain_segments(0), &obs).unwrap());
        let mut writer = WalWriter::create(&cfg(&dir).with_retain_segments(0), &obs).unwrap();
        let before = segments_in(&dir).unwrap().len();
        // A snapshot covering everything reclaims the record-less segments
        // too — they inherit the preceding segment's cumulative maxima.
        writer.retain_after_snapshot(&[("t", 10)]).unwrap();
        let after = segments_in(&dir).unwrap().len();
        assert!(after < before, "{after} < {before}");
        assert_eq!(after, 1, "only the open head survives");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_deletes_only_snapshot_covered_segments() {
        let dir = tmp_dir("retention");
        let obs = Observability::default();
        let mut writer = WalWriter::open(
            &cfg(&dir).with_retain_segments(1),
            &obs,
            Vec::new(),
            HashMap::new(),
        )
        .unwrap();
        for i in 0..30u64 {
            writer.append("t", &alert(i)).unwrap();
        }
        let before = segments_in(&dir).unwrap().len();
        assert!(before > 2);
        // No snapshot floor yet: nothing may be deleted.
        writer.retain_after_snapshot(&[("t", 0)]).unwrap();
        assert_eq!(segments_in(&dir).unwrap().len(), before);
        // A snapshot covering everything: only the retention count and the
        // open segment survive, and the survivors still scan cleanly.
        writer.retain_after_snapshot(&[("t", 30)]).unwrap();
        let after = segments_in(&dir).unwrap().len();
        assert!(after < before);
        let records = WalReader::scan(&dir).unwrap();
        assert!(records.iter().all(|r| r.seq >= 1));
        assert_eq!(records.last().unwrap().seq, 30);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_respects_each_tenants_floor() {
        let dir = tmp_dir("multi-floor");
        let obs = Observability::default();
        let mut writer = WalWriter::create(&cfg(&dir).with_retain_segments(0), &obs).unwrap();
        for i in 0..12u64 {
            writer.append("a", &alert(i)).unwrap();
            writer.append("b", &alert(i)).unwrap();
        }
        let before = segments_in(&dir).unwrap().len();
        assert!(before > 2);
        // Covering only tenant `a` deletes nothing: every segment also
        // holds uncovered `b` records.
        writer.retain_after_snapshot(&[("a", 12)]).unwrap();
        assert_eq!(segments_in(&dir).unwrap().len(), before);
        // Covering `b` as well releases everything but the open head.
        writer.retain_after_snapshot(&[("b", 12)]).unwrap();
        assert_eq!(segments_in(&dir).unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
