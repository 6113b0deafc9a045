//! Log-structured persistent store with a tiered immutable cold path.
//!
//! Every mutation is appended as one record to the active segment file. The
//! live state is two layers: an immutable base of sorted per-table **run
//! files** (see [`crate::run`]) written by [`DiskStore::compact`], plus an
//! in-memory [`DeltaState`] overlay holding every mutation since the last
//! compaction, rebuilt by replaying segments on open. Point reads fold the
//! delta over zero-copy slices of the resident run images; each run's
//! footer zone map (key range, trace-id range, time range) lets
//! [`DiskStore::key_may_exist`] prune whole runs without touching a row,
//! and lets retention ([`DiskStore::drop_expired_runs`]) drop a run whose
//! entire time range has expired instead of rewriting anything.
//!
//! This mirrors the storage Cassandra gives the paper — LSM runs fed by
//! sequential appends, point reads served from memory-resident structures —
//! at laptop scale, and keeps index persistence across the periodic update
//! runs of §3.1.3.
//!
//! ## Record format
//!
//! ```text
//! [crc32: u32 le][op: u8][table: u8][key_len: u32 le][val_len: u32 le][key][value]
//! ```
//!
//! `op`: 1 = put, 2 = append, 3 = delete (delete carries an empty value);
//! 4 = batch begin, 5 = batch commit (both carry table 0, an empty key, and
//! an 8-byte little-endian batch id). Any other op — including 6, the
//! snapshot marker of pre-manifest stores — is corruption. The checksum
//! covers everything after itself.
//!
//! ## Batch framing
//!
//! [`KvStore::begin_batch`] writes a `batch begin` record; the batch's
//! mutations follow; [`KvStore::commit_batch`] writes the matching
//! `batch commit` and fsyncs per the [`DurabilityPolicy`]. Replay buffers
//! records between a begin and its commit and applies them only at the
//! commit — an uncommitted suffix (the tail a crash leaves behind) is
//! discarded, so recovery always lands on a committed-batch boundary.
//! A commit without its begin or a begin inside an open batch cannot be
//! produced by a crash and is reported as corruption.
//!
//! ## Failure model
//!
//! A truncated trailing record (a torn write at crash) is ignored on
//! replay, but a record that is *followed by more data* and fails its
//! checksum — or carries an unknown op — is damage to acknowledged state:
//! [`DiskStore::open`] surfaces it as [`StorageError::CorruptSegment`]
//! instead of silently truncating replay. [`verify_segments`] runs the same
//! checks read-only over a store directory, for the cross-table auditor.
//!
//! Any failed write to the active segment leaves its tail in an unknown
//! state (appending more records after torn bytes would read as mid-segment
//! corruption), so the store flips to a sticky read-only *degraded* state:
//! further writes return [`StorageError::Degraded`], reads keep serving
//! from memory, and a restart recovers the durable committed prefix.
//!
//! ## Compaction and the manifest
//!
//! [`DiskStore::compact`] merges the runs and the delta into fresh sorted
//! run files (fsynced before they are referenced), then publishes them by
//! atomically replacing the `MANIFEST` (`.tmp` + fsync + rename + dir
//! fsync). The manifest's `segment_floor` is the first segment number
//! replay may apply: stale segments below the floor are superseded by the
//! runs and ignored, so a failed post-compaction sweep can never cause a
//! double replay. A crash mid-compaction leaves only orphan run files and
//! an ignored `MANIFEST.tmp`. A store without a manifest opens with an
//! empty run set and full-log replay.

use crate::codec::{Dec, Enc};
use crate::crc::crc32;
use crate::error::StorageError;
use crate::kv::{Coverage, KvStore, TableId};
use crate::metrics::StoreMetrics;
use crate::run::{
    encode_run, read_manifest, run_file_name, write_manifest, DeltaOp, DeltaState, Manifest,
    ManifestRun, QuarantineSet, QuarantinedRun, RunReader, RunSet, ZoneExtractor,
};
use crate::vfs::{RealFs, RetryPolicy, RetryVfs, Vfs, VfsFile};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const OP_PUT: u8 = 1;
const OP_APPEND: u8 = 2;
const OP_DELETE: u8 = 3;
const OP_BATCH_BEGIN: u8 = 4;
const OP_BATCH_COMMIT: u8 = 5;

/// When the store fsyncs the active segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityPolicy {
    /// Fsync after every record write. Slowest, smallest loss window.
    Always,
    /// Fsync once per committed batch (and on explicit `flush`). The
    /// default: a crash loses at most the uncommitted batch that replay
    /// discards anyway.
    #[default]
    Batch,
    /// Never fsync from the write path; only push userspace buffers to the
    /// OS at commit. A power failure may lose committed batches, a process
    /// crash does not.
    Os,
}

impl DurabilityPolicy {
    /// Parse a policy from its flag name (`always` / `batch` / `os`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "always" => Some(Self::Always),
            "batch" => Some(Self::Batch),
            "os" => Some(Self::Os),
            _ => None,
        }
    }

    /// The flag name of this policy.
    pub fn name(self) -> &'static str {
        match self {
            Self::Always => "always",
            Self::Batch => "batch",
            Self::Os => "os",
        }
    }
}

/// Options for [`DiskStore::open_with`].
#[derive(Debug, Clone)]
pub struct DiskOptions {
    /// Fsync policy of the write path.
    pub durability: DurabilityPolicy,
    /// Filesystem implementation (swap in [`crate::vfs::FaultFs`] to test).
    pub vfs: Arc<dyn Vfs>,
    /// Metrics handle for batch/fsync/degraded accounting.
    pub metrics: Option<Arc<StoreMetrics>>,
    /// Mutation bytes accumulated since the last compaction before
    /// [`DiskStore::maintain`] triggers one; `None` disables the
    /// size-triggered path entirely. The default (4 MiB) is far above what
    /// a single indexing batch writes, so maintenance only fires on
    /// genuinely grown stores.
    pub run_flush_bytes: Option<u64>,
    /// Transient-I/O retry policy: the store wraps `vfs` in a
    /// [`RetryVfs`], so interrupted-syscall-style failures are re-issued
    /// with bounded backoff instead of tripping the degraded fuse. `None`
    /// disables the wrapper (every failure surfaces immediately).
    pub retry: Option<RetryPolicy>,
    /// Keep superseded segments on disk after compaction instead of
    /// sweeping them. With the full segment history retained,
    /// [`DiskStore::repair`] can rebuild a quarantined run losslessly from
    /// the log; replay correctness is unaffected either way (the manifest's
    /// `segment_floor` keeps stale segments out of replay). Costs disk
    /// space proportional to total writes.
    pub retain_segments: bool,
}

impl Default for DiskOptions {
    fn default() -> Self {
        Self {
            durability: DurabilityPolicy::default(),
            vfs: Arc::new(RealFs),
            metrics: None,
            run_flush_bytes: Some(4 << 20),
            retry: Some(RetryPolicy::default()),
            retain_segments: false,
        }
    }
}

/// The two-layer live state: an immutable run base and the mutation delta
/// accumulated on top since the last compaction. Swapped atomically (both
/// `Arc`s under one `RwLock`) so a reader never observes a half-installed
/// tier — e.g. new runs that already contain a delta append *and* the delta
/// still holding it.
struct TierState {
    runs: Arc<RunSet>,
    delta: Arc<DeltaState>,
}

/// Persistent [`KvStore`] backed by append-only segment files and immutable
/// sorted runs in one directory.
pub struct DiskStore {
    dir: PathBuf,
    tier: RwLock<TierState>,
    vfs: Arc<dyn Vfs>,
    durability: DurabilityPolicy,
    metrics: Option<Arc<StoreMetrics>>,
    /// Sticky degraded reason. Lock order: `writer` before `tier` before
    /// `degraded`.
    degraded: Mutex<Option<String>>,
    next_batch: AtomicU64,
    writer: Mutex<Writer>,
    /// Schema-layer hook that derives trace/timestamp zones for run
    /// footers. Installed after open (the row formats are only known once
    /// the Meta table is readable), so compactions before installation
    /// write runs with key-range zones only.
    zone_extractor: RwLock<Option<Arc<dyn ZoneExtractor>>>,
    /// Mutation bytes logged since the last compaction (drives `maintain`).
    bytes_since_compact: AtomicU64,
    run_flush_bytes: Option<u64>,
    /// Next unused run id (mirrors the manifest; only written under the
    /// writer lock).
    next_run_id: AtomicU64,
    /// Current manifest `segment_floor` (0 for a store without a manifest).
    segment_floor: AtomicU64,
    /// Runs pulled from the searched set after failing verification (at
    /// open or during a scrub). Non-empty quarantine narrows coverage and
    /// blocks compaction/retention until [`DiskStore::repair`] rebuilds the
    /// tier. Lock order: after `writer` and `tier`.
    quarantine: Mutex<QuarantineSet>,
    /// Whether compaction's sweep keeps superseded segments as a repair
    /// log (see [`DiskOptions::retain_segments`]).
    retain_segments: bool,
}

struct Writer {
    file: Box<dyn VfsFile>,
    segment: u64,
    in_batch: Option<u64>,
}

impl std::fmt::Debug for DiskStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskStore")
            .field("dir", &self.dir)
            .field("durability", &self.durability)
            .finish()
    }
}

fn segment_path(dir: &Path, n: u64) -> PathBuf {
    dir.join(format!("seg-{n:06}.log"))
}

/// Segment numbers present in `dir`, ascending. `.tmp` files a crashed
/// compaction may have left behind do not match and are ignored.
fn list_segments(vfs: &dyn Vfs, dir: &Path) -> io::Result<Vec<u64>> {
    let mut nums = Vec::new();
    for name in vfs.read_dir_names(dir)? {
        if let Some(num) = name.strip_prefix("seg-").and_then(|s| s.strip_suffix(".log")) {
            if let Ok(n) = num.parse() {
                nums.push(n);
            }
        }
    }
    nums.sort_unstable();
    Ok(nums)
}

impl DiskStore {
    /// Open (or create) a store in `dir` with default options, replaying any
    /// existing segments.
    ///
    /// A truncated trailing record (torn write at crash) is tolerated and
    /// dropped, as is an uncommitted batch suffix; a checksum mismatch
    /// anywhere else fails the open with [`StorageError::CorruptSegment`] —
    /// replaying past damaged state would silently serve a wrong index.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StorageError> {
        Self::open_with(dir, DiskOptions::default())
    }

    /// Open (or create) a store with an explicit durability policy, VFS and
    /// metrics handle.
    ///
    /// With a `MANIFEST` present, the referenced runs are loaded and fully
    /// verified, and only segments at or above the manifest's
    /// `segment_floor` are replayed into the delta. A referenced run that
    /// is damaged or unreadable does **not** fail the open: runs are
    /// derived state, so the store *quarantines* it — records it (reason +
    /// key-range coverage), serves reads from the survivors, reports
    /// [`Coverage::Narrowed`](crate::kv::Coverage) and refuses
    /// compaction/retention until [`DiskStore::repair`] rebuilds the tier.
    /// Without a manifest — a fresh directory or a store from before the
    /// run tier — every segment is replayed.
    pub fn open_with(dir: impl AsRef<Path>, options: DiskOptions) -> Result<Self, StorageError> {
        let DiskOptions { durability, vfs, metrics, run_flush_bytes, retry, retain_segments } =
            options;
        let vfs: Arc<dyn Vfs> = match retry {
            Some(policy) => {
                let wrapped = RetryVfs::with_policy(vfs, policy);
                if let Some(m) = &metrics {
                    wrapped.set_metrics(m.clone());
                }
                Arc::new(wrapped)
            }
            None => vfs,
        };
        let dir = dir.as_ref().to_path_buf();
        vfs.create_dir_all(&dir)?;
        let manifest = read_manifest(vfs.as_ref(), &dir)?.unwrap_or_default();
        let mut readers = Vec::with_capacity(manifest.runs.len());
        let mut quarantine = QuarantineSet::new();
        for entry in &manifest.runs {
            let path = dir.join(run_file_name(entry.id, entry.table));
            // A referenced run that cannot be read or verified is damage to
            // acknowledged state (runs are fsynced before the manifest
            // names them), not a crash artifact — but it is *derived*
            // state, so quarantine it instead of failing the open.
            let (reason, key_range, records) =
                match RunReader::open(vfs.as_ref(), &path, entry.id, entry.table) {
                    Ok(r) if r.crc == entry.crc => {
                        readers.push(Arc::new(r));
                        continue;
                    }
                    Ok(r) => (
                        format!("manifest expects crc {:08x}, file has {:08x}", entry.crc, r.crc),
                        Some((r.zone.min_key.clone(), r.zone.max_key.clone())),
                        Some(r.zone.records),
                    ),
                    Err(StorageError::Io(e)) => {
                        (format!("referenced by manifest but unreadable: {e}"), None, None)
                    }
                    Err(StorageError::CorruptRun { reason, .. }) => (reason, None, None),
                    Err(e) => return Err(e),
                };
            quarantine.record(QuarantinedRun {
                id: entry.id,
                table: entry.table,
                path,
                reason,
                key_range,
                records,
            });
            if let Some(m) = &metrics {
                m.record_run_quarantined();
            }
        }
        if let Some(m) = &metrics {
            m.set_quarantined_live(quarantine.len());
        }
        let runs = RunSet::new(readers);
        let delta = DeltaState::new();
        let segments = list_segments(vfs.as_ref(), &dir)?;
        let mut next_batch = 0u64;
        for &n in &segments {
            if n < manifest.segment_floor {
                // Superseded by the runs (a sweep failed to remove it).
                continue;
            }
            let scan = replay_segment(vfs.as_ref(), &segment_path(&dir, n), &delta)?;
            if let Some(id) = scan.max_batch_id {
                next_batch = next_batch.max(id + 1);
            }
        }
        // The active segment is always a fresh file: appending to an
        // existing one could land records after a torn tail. Never reuse a
        // number below the floor.
        let next = segments.last().map_or(0, |n| n + 1).max(manifest.segment_floor);
        let file = vfs.open_append(&segment_path(&dir, next))?;
        if let Some(m) = &metrics {
            m.set_runs_live(runs.len());
        }
        Ok(Self {
            dir,
            tier: RwLock::new(TierState { runs: Arc::new(runs), delta: Arc::new(delta) }),
            vfs,
            durability,
            metrics,
            degraded: Mutex::new(None),
            next_batch: AtomicU64::new(next_batch),
            writer: Mutex::new(Writer { file, segment: next, in_batch: None }),
            zone_extractor: RwLock::new(None),
            bytes_since_compact: AtomicU64::new(0),
            run_flush_bytes,
            next_run_id: AtomicU64::new(manifest.next_run_id),
            segment_floor: AtomicU64::new(manifest.segment_floor),
            quarantine: Mutex::new(quarantine),
            retain_segments,
        })
    }

    /// Install the schema-layer hook that derives trace/timestamp zones for
    /// run footers (see [`ZoneExtractor`]). Runs written before
    /// installation carry key-range zones only.
    pub fn set_zone_extractor(&self, extractor: Arc<dyn ZoneExtractor>) {
        *self.zone_extractor.write() = Some(extractor);
    }

    /// Snapshot the current tier: the immutable run base and the delta
    /// overlay, consistent with each other.
    fn tier_snapshot(&self) -> (Arc<RunSet>, Arc<DeltaState>) {
        let t = self.tier.read();
        (t.runs.clone(), t.delta.clone())
    }

    /// The configured fsync policy.
    pub fn durability(&self) -> DurabilityPolicy {
        self.durability
    }

    fn degraded_reason(&self) -> Option<String> {
        self.degraded.lock().clone()
    }

    /// Flip the sticky degraded flag (first reason wins).
    fn enter_degraded(&self, reason: String) {
        let mut d = self.degraded.lock();
        if d.is_none() {
            if let Some(m) = &self.metrics {
                m.set_degraded(true);
            }
            *d = Some(reason);
        }
    }

    fn check_writable(&self) -> Result<(), StorageError> {
        match self.degraded_reason() {
            Some(reason) => Err(StorageError::Degraded { reason }),
            None => Ok(()),
        }
    }

    /// Append one record under the writer lock, honoring the `Always`
    /// fsync policy.
    fn write_record(&self, w: &mut Writer, rec: &[u8]) -> io::Result<()> {
        w.file.write_all(rec)?;
        if self.durability == DurabilityPolicy::Always {
            w.file.sync_all()?;
            if let Some(m) = &self.metrics {
                m.record_fsync();
            }
        }
        Ok(())
    }

    /// Log one mutation record and apply it to the delta, both under the
    /// writer lock — so a concurrent compaction can never snapshot a state
    /// missing a record the log already holds.
    fn log_apply(
        &self,
        op: u8,
        table: TableId,
        key: &[u8],
        value: &[u8],
    ) -> Result<(), StorageError> {
        self.check_writable()?;
        let rec = encode_record(op, table, key, value);
        let mut w = self.writer.lock();
        // Re-check under the writer lock: another writer may have failed
        // (and degraded the store) while we waited, and appending after its
        // torn bytes would read as mid-segment corruption on replay.
        self.check_writable()?;
        if let Err(e) = self.write_record(&mut w, &rec) {
            self.enter_degraded(format!("segment write failed: {e}"));
            return Err(StorageError::Io(e));
        }
        self.bytes_since_compact.fetch_add(rec.len() as u64, Ordering::Relaxed);
        let delta = self.tier.read().delta.clone();
        match op {
            OP_PUT => delta.record_put(table, key, value),
            OP_APPEND => delta.record_append(table, key, value),
            OP_DELETE => delta.record_delete(table, key),
            // log_apply is only called with mutation ops; control records
            // go through their own paths.
            _ => {}
        }
        Ok(())
    }

    /// Merge the runs and the delta into fresh sorted per-table run files,
    /// publish them through the manifest, and sweep everything they
    /// supersede. Concurrent writers are blocked for the duration.
    ///
    /// Crash-safe: the new runs are written whole and fsynced first (a
    /// crash leaves only orphan files replay ignores), then the manifest is
    /// atomically replaced (`.tmp` + fsync + rename + dir fsync) — *the
    /// rename is the commit point*. The manifest's `segment_floor` makes
    /// replay skip every pre-compaction segment, so recovery is correct
    /// with any subset of them still present: a remove failure during the
    /// sweep is collected and reported once, after the sweep finishes.
    pub fn compact(&self) -> io::Result<()> {
        let w = self.writer.lock();
        self.check_writable()?;
        if w.in_batch.is_some() {
            return Err(io::Error::other("cannot compact while a write batch is open"));
        }
        // Compacting while runs are quarantined would write a manifest
        // without them and sweep their files — silently finalizing the
        // data loss a repair could still undo. Refuse instead.
        if !self.quarantine.lock().is_empty() {
            return Err(io::Error::other(
                "cannot compact while runs are quarantined (the new manifest would finalize \
                 their data loss); run repair first",
            ));
        }
        let (runs, delta) = {
            let t = self.tier.read();
            (t.runs.clone(), t.delta.clone())
        };
        self.compact_locked(w, runs, delta)
    }

    /// Phases 1–3 of compaction over an explicit source image (`runs` +
    /// `delta`), under the writer guard the caller passes in. Shared by
    /// [`DiskStore::compact`] (current tier) and [`DiskStore::repair`]
    /// (rebuilt image); the guard is dropped before the phase-3 sweep so
    /// writers unblock as soon as the new tier is installed.
    fn compact_locked(
        &self,
        mut w: parking_lot::MutexGuard<'_, Writer>,
        runs: Arc<RunSet>,
        delta: Arc<DeltaState>,
    ) -> io::Result<()> {
        let old_active = w.segment;
        let floor = old_active + 1;
        let extractor = self.zone_extractor.read().clone();
        // Phase 1: merge and write the new runs, fsynced, unreferenced. A
        // failure here only leaves orphans a later sweep removes.
        let mut tables = runs.tables();
        for t in delta.tables() {
            if !tables.contains(&t) {
                tables.push(t);
            }
        }
        tables.sort_unstable();
        let first_id = self.next_run_id.load(Ordering::Relaxed);
        let mut new_entries: Vec<ManifestRun> = Vec::new();
        let mut run_bytes = 0u64;
        let written = (|| -> io::Result<()> {
            for &table in &tables {
                let mut image: BTreeMap<Vec<u8>, Bytes> = BTreeMap::new();
                for run in runs.for_table(table) {
                    for (key, value) in run.iter() {
                        image.insert(key.to_vec(), value);
                    }
                }
                for (key, op) in delta.entries_for(table) {
                    let key = key.into_vec();
                    match op {
                        DeltaOp::Put(v) => {
                            image.insert(key, Bytes::from(v));
                        }
                        DeltaOp::Delete => {
                            image.remove(&key);
                        }
                        DeltaOp::Append(tail) => {
                            let merged = match image.remove(&key) {
                                Some(base) => {
                                    let mut v = Vec::with_capacity(base.len() + tail.len());
                                    v.extend_from_slice(&base);
                                    v.extend_from_slice(&tail);
                                    v
                                }
                                None => tail,
                            };
                            image.insert(key, Bytes::from(merged));
                        }
                    }
                }
                let records: Vec<(Vec<u8>, Bytes)> = image.into_iter().collect();
                let Some((buf, _zone)) = encode_run(table, &records, extractor.as_deref())? else {
                    continue; // empty table: no run
                };
                let id = first_id + new_entries.len() as u64;
                let path = self.dir.join(run_file_name(id, table));
                let mut out = self.vfs.create(&path)?;
                out.write_all(&buf)?;
                out.sync_all()?;
                if let Some(m) = &self.metrics {
                    m.record_fsync();
                }
                run_bytes += buf.len() as u64;
                let crc_off = buf.len().saturating_sub(8);
                let crc = Dec::new(buf.get(crc_off..).unwrap_or(&[])).u32().unwrap_or(0);
                new_entries.push(ManifestRun { id, table, crc });
            }
            Ok(())
        })();
        if let Err(e) = written {
            for entry in &new_entries {
                let _ = self.vfs.remove_file(&self.dir.join(run_file_name(entry.id, entry.table)));
            }
            return Err(e);
        }
        // Phase 2: publish. Until the rename lands, replay still sees the
        // old manifest (or none) and the old segments — a crash anywhere
        // before this point changes nothing.
        let manifest = Manifest {
            segment_floor: floor,
            next_run_id: first_id + new_entries.len() as u64,
            runs: new_entries.clone(),
        };
        if let Err(e) = write_manifest(self.vfs.as_ref(), &self.dir, &manifest) {
            for entry in &new_entries {
                let _ = self.vfs.remove_file(&self.dir.join(run_file_name(entry.id, entry.table)));
            }
            return Err(e);
        }
        if let Some(m) = &self.metrics {
            m.record_fsync();
        }
        // Point of no return: the manifest supersedes every current
        // segment, so all further writes must land in a segment at or above
        // the floor. Failing to swap the writer would send them to a
        // segment replay now skips — degrade instead.
        match self.vfs.open_append(&segment_path(&self.dir, floor)) {
            Ok(file) => {
                w.file = file;
                w.segment = floor;
            }
            Err(e) => {
                self.enter_degraded(format!(
                    "compaction published a manifest but could not open a fresh active segment: {e}"
                ));
                return Err(e);
            }
        }
        // Install the new tier while writers are still blocked: the new
        // runs already contain every delta op, so the delta restarts empty.
        let mut readers = Vec::with_capacity(new_entries.len());
        for entry in &new_entries {
            let path = self.dir.join(run_file_name(entry.id, entry.table));
            match RunReader::open(self.vfs.as_ref(), &path, entry.id, entry.table) {
                Ok(r) => readers.push(Arc::new(r)),
                Err(e) => {
                    // We just wrote and fsynced this file; failing to read
                    // it back means the store can no longer serve its own
                    // state coherently.
                    self.enter_degraded(format!(
                        "compaction could not re-open its own run {}: {e}",
                        path.display()
                    ));
                    return Err(io::Error::other(e.to_string()));
                }
            }
        }
        let live = readers.len();
        *self.tier.write() =
            TierState { runs: Arc::new(RunSet::new(readers)), delta: Arc::new(DeltaState::new()) };
        self.next_run_id.store(manifest.next_run_id, Ordering::Relaxed);
        self.segment_floor.store(floor, Ordering::Relaxed);
        self.bytes_since_compact.store(0, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.record_run_compaction(live, run_bytes);
            m.set_runs_live(live);
        }
        drop(w);
        // Make the rename durable before deleting the data it replaces.
        self.vfs.sync_dir(&self.dir)?;
        // Phase 3: sweep superseded segments and orphan run files (from
        // this compaction's predecessors or crashed attempts). Failures are
        // collected so one bad unlink cannot abort the sweep halfway;
        // leftovers are harmless — the floor keeps stale segments out of
        // replay and orphan runs are never referenced. With
        // `retain_segments` the superseded segments are deliberately kept
        // as the repair log (replay still skips them via the floor).
        let mut failures: Vec<String> = Vec::new();
        if !self.retain_segments {
            match list_segments(self.vfs.as_ref(), &self.dir) {
                Ok(nums) => {
                    for n in nums {
                        if n < floor {
                            if let Err(e) = self.vfs.remove_file(&segment_path(&self.dir, n)) {
                                failures.push(format!("seg-{n:06}.log: {e}"));
                            }
                        }
                    }
                }
                Err(e) => failures.push(format!("listing segments: {e}")),
            }
        }
        match self.vfs.read_dir_names(&self.dir) {
            Ok(names) => {
                for name in names {
                    if crate::run::parse_run_file_name(&name).is_some()
                        && !new_entries.iter().any(|e| run_file_name(e.id, e.table) == name)
                    {
                        if let Err(e) = self.vfs.remove_file(&self.dir.join(&name)) {
                            failures.push(format!("{name}: {e}"));
                        }
                    }
                }
            }
            Err(e) => failures.push(format!("listing runs: {e}")),
        }
        if !failures.is_empty() {
            return Err(io::Error::other(format!(
                "compaction succeeded, but {} superseded file(s) could not be removed \
                 (replay stays correct with them present): {}",
                failures.len(),
                failures.join("; ")
            )));
        }
        Ok(())
    }

    /// Drop every run whose entire time range lies before `cutoff_ts` —
    /// retention without rewriting a byte of surviving data. Runs without
    /// trace/timestamp zones (no [`ZoneExtractor`] at compaction time, or
    /// undecodable rows) are conservatively kept. Returns how many runs
    /// were dropped.
    ///
    /// Note: delta appends whose run base is dropped keep only their tail;
    /// callers expire data only along boundaries the schema layer aligns
    /// with its partitions, where no live delta overlaps expired runs.
    pub fn drop_expired_runs(&self, cutoff_ts: u64) -> io::Result<usize> {
        let w = self.writer.lock();
        self.check_writable()?;
        if w.in_batch.is_some() {
            return Err(io::Error::other("cannot expire runs while a write batch is open"));
        }
        // Same guard as compaction: rewriting the manifest without the
        // quarantined runs would silently finalize their data loss.
        if !self.quarantine.lock().is_empty() {
            return Err(io::Error::other(
                "cannot expire runs while runs are quarantined; run repair first",
            ));
        }
        let (runs, delta) = {
            let t = self.tier.read();
            (t.runs.clone(), t.delta.clone())
        };
        let (dropped, kept): (Vec<_>, Vec<_>) = runs
            .runs()
            .iter()
            .cloned()
            .partition(|r| r.zone.zones.is_some_and(|z| z.ts_max < cutoff_ts));
        if dropped.is_empty() {
            return Ok(0);
        }
        let manifest = Manifest {
            segment_floor: self.segment_floor.load(Ordering::Relaxed),
            next_run_id: self.next_run_id.load(Ordering::Relaxed),
            runs: kept
                .iter()
                .map(|r| ManifestRun { id: r.id, table: r.table, crc: r.crc })
                .collect(),
        };
        write_manifest(self.vfs.as_ref(), &self.dir, &manifest)?;
        let expired = dropped.len();
        let live = kept.len();
        *self.tier.write() = TierState { runs: Arc::new(RunSet::new(kept)), delta };
        if let Some(m) = &self.metrics {
            m.record_fsync();
            m.record_runs_expired(expired);
            m.set_runs_live(live);
        }
        drop(w);
        // Make the manifest rename durable before unlinking the runs it
        // stopped referencing; an unlink failure leaves an orphan the next
        // compaction sweeps.
        self.vfs.sync_dir(&self.dir)?;
        let mut failures: Vec<String> = Vec::new();
        for r in &dropped {
            if let Err(e) = self.vfs.remove_file(&r.path) {
                failures.push(format!("{}: {e}", r.path.display()));
            }
        }
        if !failures.is_empty() {
            return Err(io::Error::other(format!(
                "retention dropped {expired} run(s), but {} file(s) could not be removed \
                 (they are unreferenced orphans): {}",
                failures.len(),
                failures.join("; ")
            )));
        }
        Ok(expired)
    }

    /// `(earliest ts_min, latest ts_max)` across all runs that carry
    /// trace/timestamp zones, or `None` if no run does. The retention CLI
    /// anchors its TTL cutoff at the latest timestamp.
    pub fn run_time_range(&self) -> Option<(u64, u64)> {
        let (runs, _) = self.tier_snapshot();
        let mut range: Option<(u64, u64)> = None;
        for r in runs.runs() {
            if let Some(z) = r.zone.zones {
                range = Some(match range {
                    Some((lo, hi)) => (lo.min(z.ts_min), hi.max(z.ts_max)),
                    None => (z.ts_min, z.ts_max),
                });
            }
        }
        range
    }

    /// Number of segment files currently on disk.
    pub fn num_segments(&self) -> io::Result<usize> {
        Ok(list_segments(self.vfs.as_ref(), &self.dir)?.len())
    }

    /// Number of live (manifest-referenced) runs.
    pub fn num_runs(&self) -> usize {
        self.tier_snapshot().0.len()
    }

    /// Mutation bytes logged since the last compaction.
    pub fn bytes_since_compact(&self) -> u64 {
        self.bytes_since_compact.load(Ordering::Relaxed)
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot of the current quarantine state: which runs were pulled
    /// from the searched set, why, and the key-range coverage lost.
    pub fn quarantine(&self) -> QuarantineSet {
        self.quarantine.lock().clone()
    }

    /// Pull run `(id, table)` from the searched tier and record the
    /// quarantine event. Returns `false` when the run is no longer live (a
    /// concurrent compaction or repair already superseded it — the damage
    /// is gone with it) or was already quarantined.
    fn quarantine_run(
        &self,
        id: u64,
        table: TableId,
        path: PathBuf,
        key_range: Option<(Vec<u8>, Vec<u8>)>,
        records: Option<u64>,
        reason: String,
    ) -> bool {
        // The writer lock serializes the tier swap against a concurrent
        // compaction installing a fresh tier (lock order: writer → tier →
        // quarantine).
        let _w = self.writer.lock();
        {
            let mut tier = self.tier.write();
            if !tier.runs.runs().iter().any(|r| r.id == id && r.table == table) {
                return false;
            }
            let kept: Vec<_> = tier
                .runs
                .runs()
                .iter()
                .filter(|r| !(r.id == id && r.table == table))
                .cloned()
                .collect();
            let live = kept.len();
            tier.runs = Arc::new(RunSet::new(kept));
            if let Some(m) = &self.metrics {
                m.set_runs_live(live);
            }
        }
        let mut q = self.quarantine.lock();
        let new = q.record(QuarantinedRun { id, table, path, reason, key_range, records });
        if new {
            if let Some(m) = &self.metrics {
                m.record_run_quarantined();
                m.set_quarantined_live(q.len());
            }
        }
        new
    }

    /// One verification pass over the live run tier: re-read every run
    /// file from disk and re-validate its full structure and CRC —
    /// catching bit rot that happened *after* the resident image was
    /// loaded. A run that no longer verifies is quarantined; reads
    /// continue against the survivors. `pause` sleeps between files to
    /// pace the I/O (the background scrubber passes a non-zero pause so a
    /// scrub never monopolizes the disk).
    pub fn scrub_paced(&self, pause: Duration) -> ScrubOutcome {
        let (runs, _) = self.tier_snapshot();
        let mut newly = 0usize;
        for run in runs.runs() {
            let verdict = match RunReader::open(self.vfs.as_ref(), &run.path, run.id, run.table) {
                Ok(fresh) if fresh.crc == run.crc => None,
                Ok(fresh) => Some(format!(
                    "scrub: file crc {:08x} no longer matches the loaded run's crc {:08x}",
                    fresh.crc, run.crc
                )),
                Err(e) => Some(format!("scrub: {e}")),
            };
            if let Some(reason) = verdict {
                let key_range = Some((run.zone.min_key.clone(), run.zone.max_key.clone()));
                if self.quarantine_run(
                    run.id,
                    run.table,
                    run.path.clone(),
                    key_range,
                    Some(run.zone.records),
                    reason,
                ) {
                    newly += 1;
                }
            }
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
        }
        if let Some(m) = &self.metrics {
            m.record_scrub_pass();
        }
        ScrubOutcome { runs_checked: runs.len(), newly_quarantined: newly }
    }

    /// [`DiskStore::scrub_paced`] without I/O pacing.
    pub fn scrub(&self) -> ScrubOutcome {
        self.scrub_paced(Duration::ZERO)
    }

    /// Rebuild the run tier after quarantine events, re-publishing through
    /// the crash-consistent manifest rename. No-op when nothing is
    /// quarantined.
    ///
    /// When the complete segment history is on disk (the store ran with
    /// [`DiskOptions::retain_segments`], or never compacted since the
    /// damaged runs were written), the tier is rebuilt **losslessly** by
    /// replaying every segment from the beginning — the quarantined runs'
    /// contents are re-derived from the log. The surviving runs are
    /// deliberately *not* used as a base in that path: their contents are
    /// already in the below-floor segments, and overlaying a full replay
    /// on them would double-apply appends.
    ///
    /// Without the full history, the tier is rebuilt from the surviving
    /// runs plus the live delta: integrity is restored and coverage
    /// returns to `Full`, but rows only the damaged files held are lost
    /// (bounded by the quarantined runs' record counts).
    pub fn repair(&self) -> io::Result<RepairOutcome> {
        let mut w = self.writer.lock();
        self.check_writable()?;
        if w.in_batch.is_some() {
            return Err(io::Error::other("cannot repair while a write batch is open"));
        }
        if self.quarantine.lock().is_empty() {
            return Ok(RepairOutcome { repaired: 0, full_history: false });
        }
        // Push buffered bytes of the active segment to the kernel so a
        // full-log read-back sees every record logged so far.
        w.file.flush()?;
        let segments = list_segments(self.vfs.as_ref(), &self.dir)?;
        let full_history = segments.first() == Some(&0)
            && segments.last().is_some_and(|&last| segments.len() as u64 == last + 1);
        let (runs, delta) = if full_history {
            let fresh = DeltaState::new();
            for &n in &segments {
                replay_segment(self.vfs.as_ref(), &segment_path(&self.dir, n), &fresh)
                    .map_err(io::Error::from)?;
            }
            (Arc::new(RunSet::empty()), Arc::new(fresh))
        } else {
            let t = self.tier.read();
            (t.runs.clone(), t.delta.clone())
        };
        self.compact_locked(w, runs, delta)?;
        let repaired = {
            let mut q = self.quarantine.lock();
            let n = q.len();
            q.clear();
            n
        };
        if let Some(m) = &self.metrics {
            m.record_runs_repaired(repaired);
            m.set_quarantined_live(0);
        }
        Ok(RepairOutcome { repaired, full_history })
    }

    /// Spawn a background thread that runs [`DiskStore::scrub_paced`]
    /// every `interval`, pacing `pause` between run files. The thread
    /// stops when the returned handle is dropped or
    /// [`ScrubberHandle::stop`] is called (it checks for shutdown in
    /// ≤50ms slices, so stopping never waits out a whole interval).
    pub fn spawn_scrubber(
        store: Arc<DiskStore>,
        interval: Duration,
        pause: Duration,
    ) -> io::Result<ScrubberHandle> {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let thread =
            std::thread::Builder::new().name("seqdet-scrub".into()).spawn(move || loop {
                let mut slept = Duration::ZERO;
                while slept < interval {
                    if flag.load(Ordering::Relaxed) {
                        return;
                    }
                    let step = (interval - slept).min(Duration::from_millis(50));
                    std::thread::sleep(step);
                    slept += step;
                }
                if flag.load(Ordering::Relaxed) {
                    return;
                }
                store.scrub_paced(pause);
            })?;
        Ok(ScrubberHandle { stop, thread: Some(thread) })
    }
}

/// Outcome of one [`DiskStore::scrub`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubOutcome {
    /// Live runs whose files were re-read and re-validated.
    pub runs_checked: usize,
    /// Runs this pass newly quarantined.
    pub newly_quarantined: usize,
}

/// Outcome of a [`DiskStore::repair`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Quarantine entries cleared by the rebuild.
    pub repaired: usize,
    /// Whether the complete segment history was available: `true` means
    /// the rebuild was lossless (full-log replay); `false` means the tier
    /// was rebuilt from the survivors and rows only the damaged runs held
    /// are gone.
    pub full_history: bool,
}

/// Handle to the background scrubber spawned by
/// [`DiskStore::spawn_scrubber`]. Dropping it stops and joins the thread.
#[derive(Debug)]
pub struct ScrubberHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ScrubberHandle {
    /// Stop the scrubber and wait for its thread to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ScrubberHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serialize one log record:
/// `[crc: u32 over the rest][op][table][key_len][val_len][key][value]`.
fn encode_record(op: u8, table: TableId, key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut body = Enc::with_capacity(14 + key.len() + value.len());
    body.u8(op).u8(table.0).u32(key.len() as u32).u32(value.len() as u32).bytes(key).bytes(value);
    let mut rec = Enc::with_capacity(4 + body.len());
    rec.u32(crc32(body.as_slice())).bytes(body.as_slice());
    rec.into_vec()
}

/// First 8 bytes of `v` as a little-endian u64 (zero-padded; callers only
/// pass length-validated batch-id values).
fn le_u64(v: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    let n = v.len().min(8);
    b[..n].copy_from_slice(&v[..n]);
    u64::from_le_bytes(b)
}

/// How one pass over a segment's bytes ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentEnd {
    /// Every byte belonged to a whole, checksum-verified record.
    Clean {
        /// Number of records parsed.
        records: u64,
    },
    /// The final record is incomplete — the torn tail of a crashed write.
    /// Everything before `offset` was verified; the tail is dropped.
    TornTail {
        /// Records parsed before the tail.
        records: u64,
        /// Byte offset where the torn record starts.
        offset: usize,
    },
    /// A record failed verification with more data after it (or a verified
    /// record carries an unknown op or breaks the batch protocol). Nothing
    /// at or past `offset` can be trusted.
    Corrupt {
        /// Records parsed before the damage.
        records: u64,
        /// Byte offset of the damaged record.
        offset: usize,
        /// What failed to verify.
        reason: String,
    },
}

/// Parse the records of one segment, feeding each verified record to
/// `apply`. Never panics, whatever `data` holds — this is the surface the
/// decoder fuzz tests drive.
///
/// This is the *record-level* check (checksums, known ops, control-record
/// shapes); it does not interpret batch framing — records inside an
/// uncommitted batch still reach `apply`. Use [`replay_segment_bytes`] for
/// batch-aware replay.
pub fn parse_segment_bytes(
    data: &[u8],
    mut apply: impl FnMut(u8, TableId, &[u8], &[u8]),
) -> SegmentEnd {
    let mut d = Dec::new(data);
    let mut records = 0u64;
    loop {
        let offset = data.len() - d.remaining();
        if d.is_done() {
            return SegmentEnd::Clean { records };
        }
        let Some(stored_crc) = d.u32() else {
            return SegmentEnd::TornTail { records, offset };
        };
        let body_start = data.len() - d.remaining();
        let (Some(op), Some(table), Some(klen), Some(vlen)) = (d.u8(), d.u8(), d.u32(), d.u32())
        else {
            return SegmentEnd::TornTail { records, offset };
        };
        let (Some(key), Some(value)) = (d.bytes(klen as usize), d.bytes(vlen as usize)) else {
            return SegmentEnd::TornTail { records, offset };
        };
        let body_end = data.len() - d.remaining();
        if crc32(&data[body_start..body_end]) != stored_crc {
            return SegmentEnd::Corrupt { records, offset, reason: "checksum mismatch".into() };
        }
        match op {
            OP_PUT | OP_APPEND | OP_DELETE => {}
            OP_BATCH_BEGIN | OP_BATCH_COMMIT => {
                if table != 0 || klen != 0 || vlen != 8 {
                    return SegmentEnd::Corrupt {
                        records,
                        offset,
                        reason: "malformed batch control record".into(),
                    };
                }
            }
            _ => {
                return SegmentEnd::Corrupt { records, offset, reason: format!("unknown op {op}") }
            }
        }
        apply(op, TableId(table), key, value);
        records += 1;
    }
}

/// Outcome of one batch-aware pass over a segment's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentScan {
    /// How the byte-level parse ended. Batch-protocol violations (a commit
    /// without its begin, a begin inside an open batch) surface here as
    /// [`SegmentEnd::Corrupt`].
    pub end: SegmentEnd,
    /// Batches whose begin *and* commit were replayed.
    pub batches_committed: u64,
    /// Uncommitted batch suffixes discarded (at most one: only the crash
    /// frontier may legitimately carry one).
    pub batches_discarded: u64,
    /// Highest batch id seen, if any batch records were present.
    pub max_batch_id: Option<u64>,
}

/// Records buffered while a batch is open: `(op, table, key, value)`.
type BufferedRecord = (u8, TableId, Vec<u8>, Vec<u8>);

/// Replay one segment's bytes with batch framing: records between a batch
/// begin and its commit are buffered and reach `apply` only when the commit
/// is seen; an uncommitted suffix is discarded (counted, not applied).
/// `apply` therefore sees only effective mutations (put, append, delete),
/// out of batch or from committed batches. Never panics.
pub fn replay_segment_bytes(
    data: &[u8],
    mut apply: impl FnMut(u8, TableId, &[u8], &[u8]),
) -> SegmentScan {
    let mut pending: Option<(u64, Vec<BufferedRecord>)> = None;
    let mut committed = 0u64;
    let mut max_batch_id: Option<u64> = None;
    // (records before the violation, its byte offset, reason)
    let mut violation: Option<(u64, usize, String)> = None;
    let mut offset = 0usize;
    let mut processed = 0u64;
    let end = parse_segment_bytes(data, |op, table, key, value| {
        let rec_offset = offset;
        offset += 14 + key.len() + value.len();
        if violation.is_some() {
            return;
        }
        match op {
            OP_BATCH_BEGIN => {
                let id = le_u64(value);
                if let Some((open, _)) = &pending {
                    violation = Some((
                        processed,
                        rec_offset,
                        format!("batch {id} begins while batch {open} is uncommitted"),
                    ));
                    return;
                }
                max_batch_id = Some(max_batch_id.map_or(id, |m| m.max(id)));
                pending = Some((id, Vec::new()));
            }
            OP_BATCH_COMMIT => {
                let id = le_u64(value);
                match pending.take() {
                    Some((begin_id, buffered)) if begin_id == id => {
                        for (op, table, key, value) in buffered {
                            apply(op, table, &key, &value);
                        }
                        committed += 1;
                    }
                    Some((begin_id, _)) => {
                        violation = Some((
                            processed,
                            rec_offset,
                            format!("batch commit {id} does not match open batch {begin_id}"),
                        ));
                        return;
                    }
                    None => {
                        violation = Some((
                            processed,
                            rec_offset,
                            format!("batch commit {id} without a matching begin"),
                        ));
                        return;
                    }
                }
            }
            _ => {
                if let Some((_, buffered)) = pending.as_mut() {
                    buffered.push((op, table, key.to_vec(), value.to_vec()));
                } else {
                    apply(op, table, key, value);
                }
            }
        }
        processed += 1;
    });
    let batches_discarded = u64::from(violation.is_none() && pending.is_some());
    let end = match violation {
        // A protocol violation always precedes any byte-level damage the
        // parser may also have found (parsing stops feeding records at the
        // first corrupt one), so it wins.
        Some((records, offset, reason)) => SegmentEnd::Corrupt { records, offset, reason },
        None => end,
    };
    SegmentScan { end, batches_committed: committed, batches_discarded, max_batch_id }
}

fn replay_segment(
    vfs: &dyn Vfs,
    path: &Path,
    delta: &DeltaState,
) -> Result<SegmentScan, StorageError> {
    let data = vfs.read(path)?;
    let scan = replay_segment_bytes(&data, |op, table, key, value| {
        match op {
            OP_PUT => delta.record_put(table, key, value),
            OP_APPEND => delta.record_append(table, key, value),
            OP_DELETE => delta.record_delete(table, key),
            // Batch control records are consumed by the framing above.
            _ => {}
        }
    });
    match &scan.end {
        SegmentEnd::Corrupt { offset, reason, .. } => Err(StorageError::CorruptSegment {
            segment: path.to_path_buf(),
            offset: *offset,
            reason: reason.clone(),
        }),
        _ => Ok(scan),
    }
}

/// One verification failure found by [`verify_segments`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentViolation {
    /// Segment file the damage lives in.
    pub segment: PathBuf,
    /// Byte offset of the damaged record.
    pub offset: usize,
    /// What failed to verify.
    pub reason: String,
}

/// Outcome of a read-only checksum pass over every segment of a store
/// directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentReport {
    /// Segment files inspected.
    pub segments: usize,
    /// Whole, checksum-verified records across all segments.
    pub records: u64,
    /// Torn tail records dropped (at most one per segment; only the crash
    /// frontier may legitimately carry one).
    pub torn_tails: usize,
    /// Write batches with both begin and commit present.
    pub batches_committed: u64,
    /// Uncommitted batch suffixes replay would discard.
    pub batches_discarded: u64,
    /// Damaged records (parsing stops at the first one per segment).
    pub violations: Vec<SegmentViolation>,
}

impl SegmentReport {
    /// True when every record of every segment verified.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Verify the CRC (record structure and batch framing) of every segment in
/// `dir` without mutating or replaying anything. Damage is *collected*, not
/// failed on, so the auditor can report all broken segments at once.
pub fn verify_segments(dir: impl AsRef<Path>) -> Result<SegmentReport, StorageError> {
    let dir = dir.as_ref();
    let mut report = SegmentReport::default();
    for n in list_segments(&RealFs, dir)? {
        let path = segment_path(dir, n);
        let data = RealFs.read(&path)?;
        report.segments += 1;
        let scan = replay_segment_bytes(&data, |_, _, _, _| {});
        report.batches_committed += scan.batches_committed;
        report.batches_discarded += scan.batches_discarded;
        match scan.end {
            SegmentEnd::Clean { records } => report.records += records,
            SegmentEnd::TornTail { records, .. } => {
                report.records += records;
                report.torn_tails += 1;
            }
            SegmentEnd::Corrupt { records, offset, reason } => {
                report.records += records;
                report.violations.push(SegmentViolation { segment: path, offset, reason });
            }
        }
    }
    Ok(report)
}

impl KvStore for DiskStore {
    fn get(&self, table: TableId, key: &[u8]) -> Option<Bytes> {
        // Borrow the tier under the read guard rather than snapshotting:
        // point reads are the query hot path, and the two Arc clone/drop
        // pairs a snapshot costs are measurable there. Nothing below takes
        // another lock, so the guard scope stays leaf-level.
        let t = self.tier.read();
        let (runs, delta) = (&t.runs, &t.delta);
        match delta.get(table, key) {
            Some(DeltaOp::Put(v)) => Some(Bytes::from(v)),
            Some(DeltaOp::Delete) => None,
            Some(DeltaOp::Append(tail)) => match runs.get(table, key) {
                Some(base) => {
                    let mut v = Vec::with_capacity(base.len() + tail.len());
                    v.extend_from_slice(&base);
                    v.extend_from_slice(&tail);
                    Some(Bytes::from(v))
                }
                None => Some(Bytes::from(tail)),
            },
            // Absent from the delta: the run image is the value, zero-copy.
            None => runs.get(table, key),
        }
    }

    /// One-pass fused read for the query hot path: the zone-map membership
    /// check and the row fetch share a single guard scope and a single walk
    /// of the table's runs, where `key_may_exist` + `get` would search the
    /// tier twice. Run pruned/searched accounting matches `key_may_exist`:
    /// a delta hit answers without consulting the runs at all.
    fn get_checked(&self, table: TableId, key: &[u8]) -> Option<Bytes> {
        let t = self.tier.read();
        let (runs, delta) = (&t.runs, &t.delta);
        let metered_runs_get = || {
            runs.get_pruning(table, key, |covered| {
                if let Some(m) = &self.metrics {
                    if covered {
                        m.record_run_searched();
                    } else {
                        m.record_run_pruned();
                    }
                }
            })
        };
        match delta.get(table, key) {
            Some(DeltaOp::Put(v)) => Some(Bytes::from(v)),
            Some(DeltaOp::Delete) => None,
            Some(DeltaOp::Append(tail)) => match metered_runs_get() {
                Some(base) => {
                    let mut v = Vec::with_capacity(base.len() + tail.len());
                    v.extend_from_slice(&base);
                    v.extend_from_slice(&tail);
                    Some(Bytes::from(v))
                }
                None => Some(Bytes::from(tail)),
            },
            None => metered_runs_get(),
        }
    }

    fn put(&self, table: TableId, key: &[u8], value: &[u8]) -> Result<(), StorageError> {
        self.log_apply(OP_PUT, table, key, value)
    }

    fn append(&self, table: TableId, key: &[u8], value: &[u8]) -> Result<(), StorageError> {
        self.log_apply(OP_APPEND, table, key, value)
    }

    fn delete(&self, table: TableId, key: &[u8]) -> Result<bool, StorageError> {
        let existed = self.get(table, key).is_some();
        self.log_apply(OP_DELETE, table, key, &[])?;
        Ok(existed)
    }

    fn scan(&self, table: TableId) -> Vec<(Bytes, Bytes)> {
        let (runs, delta) = self.tier_snapshot();
        let mut image: BTreeMap<Box<[u8]>, Vec<u8>> = BTreeMap::new();
        for run in runs.for_table(table) {
            for (key, value) in run.iter() {
                image.insert(key.into(), value.to_vec());
            }
        }
        for (key, op) in delta.entries_for(table) {
            match op {
                DeltaOp::Put(v) => {
                    image.insert(key, v);
                }
                DeltaOp::Delete => {
                    image.remove(&key);
                }
                DeltaOp::Append(tail) => {
                    image.entry(key).or_default().extend_from_slice(&tail);
                }
            }
        }
        image.into_iter().map(|(k, v)| (Bytes::from(k.into_vec()), Bytes::from(v))).collect()
    }

    fn table_len(&self, table: TableId) -> usize {
        let (runs, delta) = self.tier_snapshot();
        let mut n: isize = runs.for_table(table).map(|r| r.len() as isize).sum();
        for (key, op) in delta.entries_for(table) {
            let in_run = runs.for_table(table).any(|r| r.contains(&key));
            match op {
                DeltaOp::Delete => {
                    if in_run {
                        n -= 1;
                    }
                }
                DeltaOp::Put(_) | DeltaOp::Append(_) => {
                    if !in_run {
                        n += 1;
                    }
                }
            }
        }
        n.max(0) as usize
    }

    fn flush(&self) -> io::Result<()> {
        let mut w = self.writer.lock();
        self.check_writable()?;
        if let Err(e) = w.file.sync_all() {
            self.enter_degraded(format!("flush failed: {e}"));
            return Err(e);
        }
        if let Some(m) = &self.metrics {
            m.record_fsync();
        }
        Ok(())
    }

    fn begin_batch(&self) -> Result<(), StorageError> {
        let mut w = self.writer.lock();
        self.check_writable()?;
        if let Some(open) = w.in_batch {
            return Err(StorageError::Io(io::Error::other(format!(
                "batch {open} is already open"
            ))));
        }
        let id = self.next_batch.fetch_add(1, Ordering::Relaxed);
        let rec = encode_record(OP_BATCH_BEGIN, TableId(0), b"", &id.to_le_bytes());
        if let Err(e) = self.write_record(&mut w, &rec) {
            self.enter_degraded(format!("batch begin write failed: {e}"));
            return Err(StorageError::Io(e));
        }
        w.in_batch = Some(id);
        Ok(())
    }

    fn commit_batch(&self) -> Result<(), StorageError> {
        let mut w = self.writer.lock();
        self.check_writable()?;
        let Some(id) = w.in_batch else {
            return Err(StorageError::Io(io::Error::other("no open batch to commit")));
        };
        let rec = encode_record(OP_BATCH_COMMIT, TableId(0), b"", &id.to_le_bytes());
        let result = (|| -> io::Result<()> {
            w.file.write_all(&rec)?;
            match self.durability {
                DurabilityPolicy::Always | DurabilityPolicy::Batch => {
                    w.file.sync_all()?;
                    if let Some(m) = &self.metrics {
                        m.record_fsync();
                    }
                }
                DurabilityPolicy::Os => w.file.flush()?,
            }
            Ok(())
        })();
        w.in_batch = None;
        match result {
            Ok(()) => {
                if let Some(m) = &self.metrics {
                    m.record_batch_commit();
                }
                Ok(())
            }
            Err(e) => {
                if let Some(m) = &self.metrics {
                    m.record_batch_abort();
                }
                self.enter_degraded(format!("batch commit failed: {e}"));
                Err(StorageError::Io(e))
            }
        }
    }

    fn abort_batch(&self) {
        let mut w = self.writer.lock();
        if w.in_batch.take().is_some() {
            if let Some(m) = &self.metrics {
                m.record_batch_abort();
            }
            // The memtable already applied part of the batch, but replay
            // will discard the whole uncommitted suffix: memory is ahead of
            // the durable committed prefix until a restart.
            self.enter_degraded(
                "write batch aborted mid-batch; in-memory state is ahead of the durable \
                 committed prefix"
                    .to_owned(),
            );
        }
    }

    fn degraded(&self) -> Option<String> {
        self.degraded_reason()
    }

    /// Zone-map pruning: a key outside every run's key range — and absent
    /// from the delta — is definitely not stored, without touching a row.
    /// Each run of the table counts as either pruned (zone excludes the
    /// key) or searched (zone covers it) in [`StoreMetrics`].
    fn key_may_exist(&self, table: TableId, key: &[u8]) -> bool {
        // Same guard-level borrow as `get`: this runs once per posting row
        // on the query read path.
        let t = self.tier.read();
        let (runs, delta) = (&t.runs, &t.delta);
        if runs.is_empty() {
            // No immutable tier yet (fresh or legacy store): no pruning
            // metadata exists, so every key may exist.
            return true;
        }
        if delta.contains(table, key) {
            return true;
        }
        let mut covered = false;
        for run in runs.for_table(table) {
            if run.zone.covers_key(key) {
                covered = true;
                if let Some(m) = &self.metrics {
                    m.record_run_searched();
                }
            } else if let Some(m) = &self.metrics {
                m.record_run_pruned();
            }
        }
        covered
    }

    /// Size-triggered compaction: once the mutation bytes logged since the
    /// last compaction exceed [`DiskOptions::run_flush_bytes`], fold them
    /// into fresh runs. Called by the indexer after each committed batch.
    fn maintain(&self) -> Result<(), StorageError> {
        let Some(limit) = self.run_flush_bytes else {
            return Ok(());
        };
        if self.bytes_since_compact.load(Ordering::Relaxed) < limit {
            return Ok(());
        }
        if !self.quarantine.lock().is_empty() {
            // Compaction is refused while runs are quarantined (the new
            // manifest would finalize their data loss). Maintenance just
            // waits for a repair instead of failing every committed batch.
            return Ok(());
        }
        self.compact().map_err(StorageError::Io)
    }

    fn coverage(&self) -> Coverage {
        // Clone out of the guard before deriving the answer: Coverage
        // construction happens with no store lock held.
        let quarantine = self.quarantine.lock().clone();
        quarantine.coverage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::FaultFs;
    use std::fs;
    use std::io::Write;

    const T: TableId = TableId(3);

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("seqdet-disk-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn open_fault(dir: &Path, fault: &FaultFs) -> DiskStore {
        DiskStore::open_with(
            dir,
            DiskOptions { vfs: Arc::new(fault.clone()), ..DiskOptions::default() },
        )
        .unwrap()
    }

    #[test]
    fn basic_ops_behave_like_memstore() {
        let dir = tmp_dir("basic");
        let s = DiskStore::open(&dir).unwrap();
        s.put(T, b"k", b"v").unwrap();
        s.append(T, b"k", b"2").unwrap();
        assert_eq!(s.get(T, b"k").unwrap().as_ref(), b"v2");
        assert!(s.delete(T, b"k").unwrap());
        assert!(s.get(T, b"k").is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn state_survives_reopen() {
        let dir = tmp_dir("reopen");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"a", b"1").unwrap();
            s.append(T, b"b", b"xy").unwrap();
            s.append(T, b"b", b"z").unwrap();
            s.put(T, b"gone", b"1").unwrap();
            s.delete(T, b"gone").unwrap();
            s.flush().unwrap();
        }
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.get(T, b"a").unwrap().as_ref(), b"1");
        assert_eq!(s.get(T, b"b").unwrap().as_ref(), b"xyz");
        assert!(s.get(T, b"gone").is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_reduces_segments_and_preserves_state() {
        let dir = tmp_dir("compact");
        {
            let s = DiskStore::open(&dir).unwrap();
            for i in 0..50u32 {
                s.append(T, b"k", &i.to_le_bytes()).unwrap();
            }
            s.flush().unwrap();
        }
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"x", b"y").unwrap();
            s.flush().unwrap();
            assert!(s.num_segments().unwrap() >= 2);
            s.compact().unwrap();
            // The state now lives in runs; only the fresh active segment
            // remains.
            assert_eq!(s.num_segments().unwrap(), 1);
            assert_eq!(s.num_runs(), 1);
            assert_eq!(s.get(T, b"k").unwrap().len(), 200);
        }
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.get(T, b"k").unwrap().len(), 200);
        assert_eq!(s.get(T, b"x").unwrap().as_ref(), b"y");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writes_after_compaction_survive_reopen() {
        let dir = tmp_dir("post-compact");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"a", b"1").unwrap();
            s.compact().unwrap();
            s.put(T, b"b", b"2").unwrap();
            s.flush().unwrap();
        }
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.get(T, b"a").unwrap().as_ref(), b"1");
        assert_eq!(s.get(T, b"b").unwrap().as_ref(), b"2");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_record_is_ignored() {
        let dir = tmp_dir("torn");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"good", b"1").unwrap();
            s.flush().unwrap();
        }
        // Corrupt: append half a record to the first segment.
        let seg = segment_path(&dir, 0);
        let mut f = fs::OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[0xAA, 0xBB, 0xCC, 0xDD, OP_PUT, 3, 10, 0, 0, 0]).unwrap(); // torn record
        drop(f);
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.get(T, b"good").unwrap().as_ref(), b"1");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_record_fails_open_with_corrupt_segment() {
        let dir = tmp_dir("crc");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"first", b"1").unwrap();
            s.put(T, b"second", b"2").unwrap();
            s.flush().unwrap();
        }
        // Flip one bit inside the FIRST record's value: the damage sits
        // mid-segment (more data follows), so open must refuse rather than
        // silently truncate replay.
        let seg = segment_path(&dir, 0);
        let mut data = fs::read(&seg).unwrap();
        let first_len = encode_record(OP_PUT, T, b"first", b"1").len();
        data[first_len - 1] ^= 0x01;
        fs::write(&seg, &data).unwrap();
        match DiskStore::open(&dir) {
            Err(StorageError::CorruptSegment { segment, offset, reason }) => {
                assert_eq!(segment, seg);
                assert_eq!(offset, 0);
                assert!(reason.contains("checksum"), "{reason}");
            }
            other => panic!("expected CorruptSegment, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_in_final_record_also_fails_open() {
        // A checksum mismatch in the *last* record is still corruption (the
        // record is whole — a torn write cannot produce it), so open fails.
        let dir = tmp_dir("crc-tail");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"first", b"1").unwrap();
            s.put(T, b"second", b"2").unwrap();
            s.flush().unwrap();
        }
        let seg = segment_path(&dir, 0);
        let mut data = fs::read(&seg).unwrap();
        let len = data.len();
        data[len - 1] ^= 0x01;
        fs::write(&seg, &data).unwrap();
        assert!(matches!(
            DiskStore::open(&dir),
            Err(StorageError::CorruptSegment { offset, .. })
                if offset == encode_record(OP_PUT, T, b"first", b"1").len()
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_segments_reports_damage_read_only() {
        let dir = tmp_dir("verify");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"a", b"1").unwrap();
            s.put(T, b"b", b"2").unwrap();
            s.flush().unwrap();
        }
        let clean = verify_segments(&dir).unwrap();
        assert!(clean.ok());
        assert_eq!(clean.records, 2);
        // Note: open() leaves a fresh empty active segment behind.
        assert!(clean.segments >= 1);

        let seg = segment_path(&dir, 0);
        let mut data = fs::read(&seg).unwrap();
        data[5] ^= 0xFF; // inside the first record's body
        fs::write(&seg, &data).unwrap();
        let report = verify_segments(&dir).unwrap();
        assert!(!report.ok());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].segment, seg);
        assert_eq!(report.records, 0, "parsing stops at the damaged record");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parse_segment_bytes_never_panics_on_garbage_shapes() {
        // Structured spot checks (the proptest fuzz lives in
        // tests/segment_fuzz.rs): empty, short, and header-lying inputs.
        assert_eq!(parse_segment_bytes(&[], |_, _, _, _| {}), SegmentEnd::Clean { records: 0 });
        assert!(matches!(
            parse_segment_bytes(&[1, 2, 3], |_, _, _, _| {}),
            SegmentEnd::TornTail { records: 0, offset: 0 }
        ));
        // A header claiming a huge value length must read as a torn tail,
        // not an allocation or a panic.
        let mut rec = Enc::new();
        rec.u32(0).u8(OP_PUT).u8(3).u32(4).u32(u32::MAX).bytes(b"keyy");
        assert!(matches!(
            parse_segment_bytes(rec.as_slice(), |_, _, _, _| {}),
            SegmentEnd::TornTail { .. }
        ));
    }

    #[test]
    fn empty_keys_and_values_roundtrip() {
        let dir = tmp_dir("empty");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"", b"").unwrap();
            s.put(T, b"k", b"").unwrap();
            s.flush().unwrap();
        }
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.get(T, b"").unwrap().len(), 0);
        assert_eq!(s.get(T, b"k").unwrap().len(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn committed_batch_survives_reopen() {
        let dir = tmp_dir("batch-commit");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.begin_batch().unwrap();
            s.put(T, b"x", b"1").unwrap();
            s.append(T, b"y", b"2").unwrap();
            s.commit_batch().unwrap();
        }
        let report = verify_segments(&dir).unwrap();
        assert!(report.ok());
        assert_eq!(report.batches_committed, 1);
        assert_eq!(report.batches_discarded, 0);
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.get(T, b"x").unwrap().as_ref(), b"1");
        assert_eq!(s.get(T, b"y").unwrap().as_ref(), b"2");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncommitted_batch_suffix_is_discarded_on_reopen() {
        let dir = tmp_dir("batch-discard");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"keep", b"1").unwrap();
            s.begin_batch().unwrap();
            s.put(T, b"lost-a", b"x").unwrap();
            s.put(T, b"lost-b", b"y").unwrap();
            // No commit: simulate a crash by forcing bytes out without one.
            // (Dropping the store flushes the buffered writer.)
        }
        let report = verify_segments(&dir).unwrap();
        assert!(report.ok());
        assert_eq!(report.batches_discarded, 1);
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.get(T, b"keep").unwrap().as_ref(), b"1");
        assert!(s.get(T, b"lost-a").is_none());
        assert!(s.get(T, b"lost-b").is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_ids_keep_growing_across_reopen() {
        let dir = tmp_dir("batch-ids");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.begin_batch().unwrap();
            s.put(T, b"a", b"1").unwrap();
            s.commit_batch().unwrap();
        }
        {
            let s = DiskStore::open(&dir).unwrap();
            assert_eq!(s.next_batch.load(Ordering::Relaxed), 1);
            s.begin_batch().unwrap();
            s.put(T, b"b", b"2").unwrap();
            s.commit_batch().unwrap();
        }
        let report = verify_segments(&dir).unwrap();
        assert_eq!(report.batches_committed, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nested_begin_and_stray_commit_are_refused() {
        let dir = tmp_dir("batch-misuse");
        let s = DiskStore::open(&dir).unwrap();
        assert!(s.commit_batch().is_err(), "commit without begin");
        s.begin_batch().unwrap();
        assert!(s.begin_batch().is_err(), "nested begin");
        s.commit_batch().unwrap();
        assert!(s.degraded().is_none(), "misuse errors must not degrade the store");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stray_commit_record_fails_open_as_corruption() {
        let dir = tmp_dir("stray-commit");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"a", b"1").unwrap();
            s.flush().unwrap();
        }
        let seg = segment_path(&dir, 0);
        let mut f = fs::OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&encode_record(OP_BATCH_COMMIT, TableId(0), b"", &7u64.to_le_bytes())).unwrap();
        drop(f);
        match DiskStore::open(&dir) {
            Err(StorageError::CorruptSegment { offset, reason, .. }) => {
                assert_eq!(offset, encode_record(OP_PUT, T, b"a", b"1").len());
                assert!(reason.contains("without a matching begin"), "{reason}");
            }
            other => panic!("expected CorruptSegment, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leftover_tmp_snapshot_is_ignored_on_open() {
        let dir = tmp_dir("tmp-ignored");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"a", b"1").unwrap();
            s.flush().unwrap();
        }
        // A crashed compaction leaves a .tmp file behind; it must be
        // invisible to replay (its content could be anything).
        fs::write(dir.join("seg-000099.log.tmp"), b"half-written garbage").unwrap();
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.get(T, b"a").unwrap().as_ref(), b"1");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_failure_degrades_store_but_reads_survive() {
        let dir = tmp_dir("degrade");
        let fault = FaultFs::new();
        let s = open_fault(&dir, &fault);
        s.put(T, b"a", b"1").unwrap();
        fault.arm_fail_after_writes(0);
        let err = s.put(T, b"b", b"2").unwrap_err();
        assert!(matches!(err, StorageError::Io(_)), "first failure is the I/O error: {err}");
        // Sticky: later writes are refused as Degraded, even though the
        // injected fault has passed.
        fault.heal();
        assert!(s.put(T, b"c", b"3").unwrap_err().is_degraded());
        assert!(s.append(T, b"a", b"x").unwrap_err().is_degraded());
        assert!(s.delete(T, b"a").unwrap_err().is_degraded());
        assert!(s.begin_batch().unwrap_err().is_degraded());
        assert!(s.flush().is_err());
        assert!(s.compact().is_err());
        assert!(s.degraded().unwrap().contains("segment write failed"));
        // Reads keep serving the pre-failure state; the failed write was
        // not applied to memory.
        assert_eq!(s.get(T, b"a").unwrap().as_ref(), b"1");
        assert!(s.get(T, b"b").is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn abort_batch_degrades_and_reopen_recovers_committed_prefix() {
        let dir = tmp_dir("abort");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.begin_batch().unwrap();
            s.put(T, b"committed", b"1").unwrap();
            s.commit_batch().unwrap();
            s.begin_batch().unwrap();
            s.put(T, b"half", b"x").unwrap();
            s.abort_batch();
            // Memory is ahead of the durable committed prefix: degraded.
            assert!(s.degraded().is_some());
            assert!(s.put(T, b"later", b"y").unwrap_err().is_degraded());
            // The aborted batch's write is still visible in memory…
            assert_eq!(s.get(T, b"half").unwrap().as_ref(), b"x");
        }
        // …but a restart lands on the committed-batch boundary.
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.get(T, b"committed").unwrap().as_ref(), b"1");
        assert!(s.get(T, b"half").is_none());
        assert!(s.degraded().is_none(), "a reopened store starts healthy");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_is_refused_mid_batch() {
        let dir = tmp_dir("compact-mid-batch");
        let s = DiskStore::open(&dir).unwrap();
        s.begin_batch().unwrap();
        s.put(T, b"a", b"1").unwrap();
        assert!(s.compact().is_err());
        s.commit_batch().unwrap();
        s.compact().unwrap();
        assert_eq!(s.get(T, b"a").unwrap().as_ref(), b"1");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_sweep_tolerates_remove_failures() {
        let dir = tmp_dir("compact-sweep");
        let fault = FaultFs::new();
        {
            let s = open_fault(&dir, &fault);
            s.put(T, b"a", b"1").unwrap();
            s.flush().unwrap();
        }
        let s = open_fault(&dir, &fault);
        s.put(T, b"b", b"2").unwrap();
        // Every remove in the sweep fails; compaction must still finish,
        // publish the snapshot, and report the failures once.
        fault.arm_fail_after_removes(0);
        let err = s.compact().unwrap_err();
        assert!(err.to_string().contains("could not be removed"), "{err}");
        assert!(s.degraded().is_none(), "leftover old segments are harmless");
        // Writes keep working and land after the snapshot.
        fault.heal();
        s.put(T, b"c", b"3").unwrap();
        s.flush().unwrap();
        drop(s);
        // Replay with the old segments still present is correct thanks to
        // the manifest's segment floor.
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.get(T, b"a").unwrap().as_ref(), b"1");
        assert_eq!(s.get(T, b"b").unwrap().as_ref(), b"2");
        assert_eq!(s.get(T, b"c").unwrap().as_ref(), b"3");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_emits_runs_and_manifest_and_reopen_serves_from_runs() {
        let dir = tmp_dir("runs-roundtrip");
        let t2 = TableId(7);
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"a", b"1").unwrap();
            s.append(T, b"b", b"xy").unwrap();
            s.append(T, b"b", b"z").unwrap();
            s.put(t2, b"other", b"table").unwrap();
            s.compact().unwrap();
            assert_eq!(s.num_runs(), 2, "one run per non-empty table");
            assert_eq!(s.bytes_since_compact(), 0);
            // Post-compact reads serve from the runs.
            assert_eq!(s.get(T, b"b").unwrap().as_ref(), b"xyz");
            assert_eq!(s.get(t2, b"other").unwrap().as_ref(), b"table");
            assert_eq!(s.table_len(T), 2);
        }
        let report = crate::run::verify_runs(&RealFs, &dir).unwrap();
        assert!(report.ok(), "{report:?}");
        assert_eq!(report.runs, 2);
        assert_eq!(report.records, 3);
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.num_runs(), 2);
        assert_eq!(s.get(T, b"a").unwrap().as_ref(), b"1");
        assert_eq!(s.get(T, b"b").unwrap().as_ref(), b"xyz");
        assert_eq!(s.get(t2, b"other").unwrap().as_ref(), b"table");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_sweep_failure_cannot_double_replay() {
        // Regression guard for the error-sweep path: a compaction that
        // publishes its manifest but fails to unlink the old segments must
        // not replay those segments again on reopen — an append replayed on
        // top of the run holding the same bytes would double the value.
        let dir = tmp_dir("no-double-replay");
        let fault = FaultFs::new();
        let s = open_fault(&dir, &fault);
        s.append(T, b"k", b"ab").unwrap();
        s.append(T, b"k", b"cd").unwrap();
        s.flush().unwrap();
        fault.arm_fail_after_removes(0);
        let err = s.compact().unwrap_err();
        assert!(err.to_string().contains("could not be removed"), "{err}");
        assert!(s.degraded().is_none());
        assert_eq!(s.get(T, b"k").unwrap().as_ref(), b"abcd");
        fault.heal();
        drop(s);
        // The stale segment with both append records is still on disk
        // alongside the run; the manifest's segment floor must keep it out
        // of replay.
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(
            s.get(T, b"k").unwrap().as_ref(),
            b"abcd",
            "stale pre-compaction segment was replayed on top of the runs"
        );
        assert_eq!(s.table_len(T), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delta_over_runs_folds_mutations_across_compactions() {
        let dir = tmp_dir("delta-fold");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.append(T, b"grow", b"base").unwrap();
            s.put(T, b"gone", b"soon").unwrap();
            s.put(T, b"stay", b"1").unwrap();
            s.compact().unwrap();
            // Mutate on top of the runs: append to a run row, delete a run
            // row, overwrite a run row, create a fresh row.
            s.append(T, b"grow", b"+tail").unwrap();
            s.delete(T, b"gone").unwrap();
            s.put(T, b"stay", b"2").unwrap();
            s.put(T, b"new", b"row").unwrap();
            assert_eq!(s.get(T, b"grow").unwrap().as_ref(), b"base+tail");
            assert!(s.get(T, b"gone").is_none());
            assert_eq!(s.table_len(T), 3);
            s.flush().unwrap();
        }
        // Reopen replays the delta from the post-compaction segment.
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.get(T, b"grow").unwrap().as_ref(), b"base+tail");
        assert!(s.get(T, b"gone").is_none());
        assert_eq!(s.get(T, b"stay").unwrap().as_ref(), b"2");
        assert_eq!(s.get(T, b"new").unwrap().as_ref(), b"row");
        // A second compaction folds the delta into fresh runs.
        s.compact().unwrap();
        assert_eq!(s.get(T, b"grow").unwrap().as_ref(), b"base+tail");
        assert_eq!(s.table_len(T), 3);
        let scanned = s.scan(T);
        assert_eq!(scanned.len(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn key_may_exist_prunes_by_zone_map() {
        let dir = tmp_dir("zone-prune");
        let metrics = Arc::new(StoreMetrics::new());
        let s = DiskStore::open_with(
            &dir,
            DiskOptions { metrics: Some(metrics.clone()), ..DiskOptions::default() },
        )
        .unwrap();
        // Before any run exists there is no pruning metadata.
        assert!(s.key_may_exist(T, b"anything"));
        s.put(T, b"m-key-1", b"1").unwrap();
        s.put(T, b"m-key-5", b"5").unwrap();
        s.compact().unwrap();
        // Inside the zone: the run must be consulted.
        assert!(s.key_may_exist(T, b"m-key-1"));
        assert!(s.key_may_exist(T, b"m-key-3"), "absent but zone-covered: may exist");
        assert_eq!(metrics.runs_searched(), 2);
        // Outside the zone on both sides: definitively absent.
        assert!(!s.key_may_exist(T, b"a-before"));
        assert!(!s.key_may_exist(T, b"z-after"));
        assert_eq!(metrics.runs_pruned(), 2);
        // Fresh delta writes are always visible.
        s.put(T, b"z-after", b"now").unwrap();
        assert!(s.key_may_exist(T, b"z-after"));
        // A table with no runs and no delta rows holds nothing.
        assert!(!s.key_may_exist(TableId(99), b"m-key-1"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn get_checked_fuses_pruning_with_the_read() {
        let dir = tmp_dir("get-checked");
        let metrics = Arc::new(StoreMetrics::new());
        let s = DiskStore::open_with(
            &dir,
            DiskOptions { metrics: Some(metrics.clone()), ..DiskOptions::default() },
        )
        .unwrap();
        s.put(T, b"m-key-1", b"1").unwrap();
        s.put(T, b"m-key-5", b"5").unwrap();
        s.compact().unwrap();
        // A covered hit and a covered miss each search the run once.
        assert_eq!(s.get_checked(T, b"m-key-1").unwrap().as_ref(), b"1");
        assert!(s.get_checked(T, b"m-key-3").is_none());
        assert_eq!(metrics.runs_searched(), 2);
        // Outside the zone: the run's row index is never consulted.
        assert!(s.get_checked(T, b"a-before").is_none());
        assert!(s.get_checked(T, b"z-after").is_none());
        assert_eq!(metrics.runs_pruned(), 2);
        // Delta ops shadow and extend the run image without run accounting,
        // matching `key_may_exist`'s delta fast path.
        s.put(T, b"m-key-1", b"new").unwrap();
        s.append(T, b"m-key-5", b"+tail").unwrap();
        let (searched, pruned) = (metrics.runs_searched(), metrics.runs_pruned());
        assert_eq!(s.get_checked(T, b"m-key-1").unwrap().as_ref(), b"new");
        assert_eq!(metrics.runs_searched(), searched, "delta Put answers without the runs");
        assert_eq!(s.get_checked(T, b"m-key-5").unwrap().as_ref(), b"5+tail");
        assert_eq!(metrics.runs_searched(), searched + 1, "Append merges over the run image");
        assert_eq!(metrics.runs_pruned(), pruned);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn maintain_compacts_once_over_the_byte_threshold() {
        let dir = tmp_dir("maintain");
        let s = DiskStore::open_with(
            &dir,
            DiskOptions { run_flush_bytes: Some(64), ..DiskOptions::default() },
        )
        .unwrap();
        s.maintain().unwrap();
        assert_eq!(s.num_runs(), 0, "below the threshold: no compaction");
        for i in 0..8u32 {
            s.append(T, b"k", &i.to_le_bytes()).unwrap();
        }
        assert!(s.bytes_since_compact() > 64);
        s.maintain().unwrap();
        assert_eq!(s.num_runs(), 1, "over the threshold: compacted into a run");
        assert_eq!(s.bytes_since_compact(), 0);
        assert_eq!(s.get(T, b"k").unwrap().len(), 32);
        // Disabled maintenance never compacts.
        let dir2 = tmp_dir("maintain-off");
        let s2 = DiskStore::open_with(
            &dir2,
            DiskOptions { run_flush_bytes: None, ..DiskOptions::default() },
        )
        .unwrap();
        for i in 0..100u32 {
            s2.append(T, b"k", &i.to_le_bytes()).unwrap();
        }
        s2.maintain().unwrap();
        assert_eq!(s2.num_runs(), 0);
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&dir2).unwrap();
    }

    /// Test extractor: timestamp zones keyed by table id, trace range fixed.
    struct TsByTable;
    impl crate::run::ZoneExtractor for TsByTable {
        fn zones(&self, table: TableId, _: &[u8], _: &[u8]) -> Option<crate::run::RowZones> {
            Some(crate::run::RowZones {
                trace_min: 1,
                trace_max: 9,
                ts_min: table.0 as u64 * 100,
                ts_max: table.0 as u64 * 100 + 50,
            })
        }
    }

    #[test]
    fn drop_expired_runs_drops_only_fully_expired_runs() {
        let dir = tmp_dir("retention");
        let metrics = Arc::new(StoreMetrics::new());
        let old_t = TableId(1); // ts range [100, 150]
        let new_t = TableId(4); // ts range [400, 450]
        let s = DiskStore::open_with(
            &dir,
            DiskOptions { metrics: Some(metrics.clone()), ..DiskOptions::default() },
        )
        .unwrap();
        s.set_zone_extractor(Arc::new(TsByTable));
        s.put(old_t, b"old", b"1").unwrap();
        s.put(new_t, b"new", b"2").unwrap();
        s.compact().unwrap();
        assert_eq!(s.num_runs(), 2);
        assert_eq!(s.run_time_range(), Some((100, 450)));
        // Cutoff between the two runs' ranges: only the old one expires.
        assert_eq!(s.drop_expired_runs(200).unwrap(), 1);
        assert_eq!(s.num_runs(), 1);
        assert_eq!(metrics.runs_expired(), 1);
        assert!(s.get(old_t, b"old").is_none(), "expired run no longer serves");
        assert_eq!(s.get(new_t, b"new").unwrap().as_ref(), b"2");
        // Nothing left to expire below the same cutoff.
        assert_eq!(s.drop_expired_runs(200).unwrap(), 0);
        drop(s);
        // The rewritten manifest survives reopen.
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.num_runs(), 1);
        assert!(s.get(old_t, b"old").is_none());
        assert_eq!(s.get(new_t, b"new").unwrap().as_ref(), b"2");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crashed_compaction_leaves_store_state_unchanged() {
        let dir = tmp_dir("compact-crash");
        let fault = FaultFs::new();
        {
            let s = open_fault(&dir, &fault);
            s.put(T, b"a", b"1").unwrap();
            s.put(T, b"b", b"2").unwrap();
            s.flush().unwrap();
        }
        let s = open_fault(&dir, &fault);
        // Crash after a handful of bytes: somewhere inside the run write,
        // before the manifest rename can land.
        fault.arm_crash_after_bytes(10);
        assert!(s.compact().is_err());
        fault.heal();
        drop(s);
        // Whatever the crash left behind (orphan run files, a manifest
        // .tmp), replay must reproduce the pre-compaction state.
        let s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.get(T, b"a").unwrap().as_ref(), b"1");
        assert_eq!(s.get(T, b"b").unwrap().as_ref(), b"2");
        assert_eq!(s.num_runs(), 0, "no manifest was published");
        // A later compaction sweeps the orphans and completes normally.
        s.compact().unwrap();
        assert_eq!(s.num_runs(), 1);
        let report = crate::run::verify_runs(&RealFs, &dir).unwrap();
        assert!(report.ok(), "{report:?}");
        assert_eq!(report.orphans, 0, "completed compaction swept crash leftovers");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durability_policy_names_roundtrip() {
        for p in [DurabilityPolicy::Always, DurabilityPolicy::Batch, DurabilityPolicy::Os] {
            assert_eq!(DurabilityPolicy::from_name(p.name()), Some(p));
        }
        assert_eq!(DurabilityPolicy::from_name("paranoid"), None);
        assert_eq!(DurabilityPolicy::default(), DurabilityPolicy::Batch);
    }

    #[test]
    fn durability_always_fsyncs_every_record() {
        let dir = tmp_dir("durability-always");
        let metrics = Arc::new(StoreMetrics::new());
        let s = DiskStore::open_with(
            &dir,
            DiskOptions {
                durability: DurabilityPolicy::Always,
                metrics: Some(metrics.clone()),
                ..DiskOptions::default()
            },
        )
        .unwrap();
        s.put(T, b"a", b"1").unwrap();
        s.put(T, b"b", b"2").unwrap();
        assert_eq!(metrics.fsyncs(), 2);
        s.begin_batch().unwrap();
        s.put(T, b"c", b"3").unwrap();
        s.commit_batch().unwrap();
        assert_eq!(metrics.batch_commits(), 1);
        // begin + put fsync per record, plus the commit-boundary fsync.
        assert_eq!(metrics.fsyncs(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metrics_expose_degraded_flag_and_aborts() {
        let dir = tmp_dir("metrics-degraded");
        let fault = FaultFs::new();
        let metrics = Arc::new(StoreMetrics::new());
        let s = DiskStore::open_with(
            &dir,
            DiskOptions {
                vfs: Arc::new(fault.clone()),
                metrics: Some(metrics.clone()),
                ..DiskOptions::default()
            },
        )
        .unwrap();
        s.begin_batch().unwrap();
        s.put(T, b"a", b"1").unwrap();
        s.abort_batch();
        assert_eq!(metrics.batch_aborts(), 1);
        assert!(metrics.degraded());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Flip one mid-file byte of `path` on the real filesystem — simulated
    /// at-rest bit rot for a closed store.
    fn flip_mid_byte(path: &Path) {
        let mut data = fs::read(path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        fs::write(path, data).unwrap();
    }

    /// Path of the run file holding `table`'s rows.
    fn run_path_for(dir: &Path, table: TableId) -> PathBuf {
        for entry in fs::read_dir(dir).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            if let Some((_, t)) = crate::run::parse_run_file_name(&name) {
                if t == table {
                    return dir.join(name);
                }
            }
        }
        panic!("no run file for table {table:?} in {}", dir.display());
    }

    #[test]
    fn damaged_run_quarantines_on_open_instead_of_failing() {
        let dir = tmp_dir("quarantine-open");
        let t2 = TableId(8);
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"hit", b"run-row").unwrap();
            s.put(t2, b"safe", b"other-table").unwrap();
            s.compact().unwrap();
        }
        flip_mid_byte(&run_path_for(&dir, T));
        let metrics = Arc::new(StoreMetrics::new());
        let s = DiskStore::open_with(
            &dir,
            DiskOptions { metrics: Some(metrics.clone()), ..DiskOptions::default() },
        )
        .unwrap();
        // The damaged run is out of the searched set: its rows are gone,
        // the surviving table still answers, nothing fails.
        assert!(s.get(T, b"hit").is_none());
        assert_eq!(s.get(t2, b"safe").unwrap().as_ref(), b"other-table");
        let q = s.quarantine();
        assert_eq!(q.len(), 1);
        assert_eq!(q.tables(), vec![T]);
        match s.coverage() {
            Coverage::Narrowed { quarantined_tables, reason } => {
                assert_eq!(quarantined_tables, vec![T]);
                assert!(!reason.is_empty());
            }
            Coverage::Full => panic!("damaged run did not narrow coverage"),
        }
        assert_eq!(metrics.runs_quarantined(), 1);
        assert_eq!(metrics.quarantined_live(), 1);
        // New writes still land (in the delta and segments).
        s.put(T, b"fresh", b"write").unwrap();
        assert_eq!(s.get(T, b"fresh").unwrap().as_ref(), b"write");
        s.flush().unwrap();
        drop(s);
        // The manifest still references the damaged run, so a reopen
        // re-quarantines it — the narrowed state is sticky until repaired.
        let s = DiskStore::open(&dir).unwrap();
        assert!(!s.coverage().is_full());
        assert_eq!(s.get(T, b"fresh").unwrap().as_ref(), b"write");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_and_expiry_are_refused_while_quarantined() {
        let dir = tmp_dir("quarantine-blocks-compact");
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"k", b"v").unwrap();
            s.compact().unwrap();
        }
        flip_mid_byte(&run_path_for(&dir, T));
        let s = DiskStore::open_with(
            &dir,
            DiskOptions { run_flush_bytes: Some(1), ..DiskOptions::default() },
        )
        .unwrap();
        assert!(!s.coverage().is_full());
        // A compaction would publish a manifest without the quarantined
        // run, silently finalizing its loss — refused until repair.
        let err = s.compact().unwrap_err();
        assert!(err.to_string().contains("quarantined"), "{err}");
        let err = s.drop_expired_runs(u64::MAX).unwrap_err();
        assert!(err.to_string().contains("quarantined"), "{err}");
        // maintain() (the indexer's per-batch hook) waits instead of
        // failing every committed batch.
        s.put(T, b"more", b"data").unwrap();
        s.maintain().unwrap();
        assert!(!s.coverage().is_full());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scrub_quarantines_bit_rotted_run() {
        let dir = tmp_dir("scrub-bit-rot");
        let fault = FaultFs::new();
        let metrics = Arc::new(StoreMetrics::new());
        let s = DiskStore::open_with(
            &dir,
            DiskOptions {
                vfs: Arc::new(fault.clone()),
                metrics: Some(metrics.clone()),
                ..DiskOptions::default()
            },
        )
        .unwrap();
        s.put(T, b"k", b"v").unwrap();
        s.compact().unwrap();
        // A clean pass finds nothing.
        assert_eq!(s.scrub(), ScrubOutcome { runs_checked: 1, newly_quarantined: 0 });
        assert!(s.coverage().is_full());
        // Rot a byte of the run file: the resident image is unaffected (no
        // read touches disk), but the next scrub re-reads the file.
        fault.arm_bit_rot("run-", 10);
        assert_eq!(s.get(T, b"k").unwrap().as_ref(), b"v", "resident reads unaffected");
        assert_eq!(s.scrub(), ScrubOutcome { runs_checked: 1, newly_quarantined: 1 });
        assert!(!s.coverage().is_full());
        assert!(s.get(T, b"k").is_none());
        assert_eq!(metrics.scrub_passes(), 2);
        assert_eq!(metrics.runs_quarantined(), 1);
        // Nothing live is left to check, and the quarantine is not
        // double-counted.
        assert_eq!(s.scrub(), ScrubOutcome { runs_checked: 0, newly_quarantined: 0 });
        assert_eq!(metrics.quarantined_live(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repair_without_history_restores_coverage_with_bounded_loss() {
        let dir = tmp_dir("repair-lossy");
        let t2 = TableId(9);
        {
            let s = DiskStore::open(&dir).unwrap();
            s.put(T, b"lost", b"only-in-damaged-run").unwrap();
            s.put(t2, b"kept", b"in-surviving-run").unwrap();
            s.compact().unwrap();
        }
        flip_mid_byte(&run_path_for(&dir, T));
        let metrics = Arc::new(StoreMetrics::new());
        let s = DiskStore::open_with(
            &dir,
            DiskOptions { metrics: Some(metrics.clone()), ..DiskOptions::default() },
        )
        .unwrap();
        s.put(T, b"delta", b"post-damage write").unwrap();
        assert!(!s.coverage().is_full());
        let outcome = s.repair().unwrap();
        assert_eq!(outcome, RepairOutcome { repaired: 1, full_history: false });
        // Integrity is back — coverage Full, survivors and delta intact.
        // The damaged run's row is gone: the default segment sweep had
        // already removed the log that could have rebuilt it.
        assert!(s.coverage().is_full());
        assert!(s.quarantine().is_empty());
        assert!(s.get(T, b"lost").is_none());
        assert_eq!(s.get(t2, b"kept").unwrap().as_ref(), b"in-surviving-run");
        assert_eq!(s.get(T, b"delta").unwrap().as_ref(), b"post-damage write");
        assert_eq!(metrics.runs_repaired(), 1);
        assert_eq!(metrics.quarantined_live(), 0);
        // The rebuilt tier verifies clean and the damaged file was swept.
        let report = crate::run::verify_runs(&RealFs, &dir).unwrap();
        assert!(report.ok(), "{report:?}");
        drop(s);
        let s = DiskStore::open(&dir).unwrap();
        assert!(s.coverage().is_full());
        assert_eq!(s.get(T, b"delta").unwrap().as_ref(), b"post-damage write");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repair_with_retained_segments_is_lossless() {
        let dir = tmp_dir("repair-lossless");
        {
            let s = DiskStore::open_with(
                &dir,
                DiskOptions { retain_segments: true, ..DiskOptions::default() },
            )
            .unwrap();
            s.put(T, b"a", b"first").unwrap();
            s.append(T, b"a", b"+more").unwrap();
            s.compact().unwrap();
            s.put(T, b"b", b"second-era").unwrap();
            s.compact().unwrap();
            s.put(T, b"c", b"delta-row").unwrap();
            s.flush().unwrap();
            // retain_segments kept the complete history on disk.
            assert_eq!(list_segments(&RealFs, &dir).unwrap(), vec![0, 1, 2]);
        }
        flip_mid_byte(&run_path_for(&dir, T));
        let metrics = Arc::new(StoreMetrics::new());
        let s = DiskStore::open_with(
            &dir,
            DiskOptions {
                metrics: Some(metrics.clone()),
                retain_segments: true,
                ..DiskOptions::default()
            },
        )
        .unwrap();
        assert!(!s.coverage().is_full());
        assert!(s.get(T, b"a").is_none(), "damaged run's rows are narrowed out");
        let outcome = s.repair().unwrap();
        assert_eq!(outcome, RepairOutcome { repaired: 1, full_history: true });
        // Everything ever acknowledged is back, rebuilt from the log.
        assert!(s.coverage().is_full());
        assert_eq!(s.get(T, b"a").unwrap().as_ref(), b"first+more");
        assert_eq!(s.get(T, b"b").unwrap().as_ref(), b"second-era");
        assert_eq!(s.get(T, b"c").unwrap().as_ref(), b"delta-row");
        assert_eq!(metrics.runs_repaired(), 1);
        // The repair republished through a compaction, so the history is
        // still complete (contiguous from segment 0) for the next incident.
        let segs = list_segments(&RealFs, &dir).unwrap();
        assert_eq!(segs, (0..segs.len() as u64).collect::<Vec<_>>());
        let report = crate::run::verify_runs(&RealFs, &dir).unwrap();
        assert!(report.ok(), "{report:?}");
        drop(s);
        let s = DiskStore::open_with(
            &dir,
            DiskOptions { retain_segments: true, ..DiskOptions::default() },
        )
        .unwrap();
        assert!(s.coverage().is_full());
        assert_eq!(s.get(T, b"a").unwrap().as_ref(), b"first+more");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn background_scrubber_detects_damage_within_its_interval() {
        let dir = tmp_dir("scrubber-thread");
        let fault = FaultFs::new();
        let metrics = Arc::new(StoreMetrics::new());
        let s = Arc::new(
            DiskStore::open_with(
                &dir,
                DiskOptions {
                    vfs: Arc::new(fault.clone()),
                    metrics: Some(metrics.clone()),
                    ..DiskOptions::default()
                },
            )
            .unwrap(),
        );
        s.put(T, b"k", b"v").unwrap();
        s.compact().unwrap();
        let handle =
            DiskStore::spawn_scrubber(s.clone(), Duration::from_millis(1), Duration::ZERO).unwrap();
        fault.arm_bit_rot("run-", 10);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while s.coverage().is_full() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.stop();
        assert!(!s.coverage().is_full(), "scrubber never caught the bit rot");
        assert!(metrics.scrub_passes() >= 1);
        assert_eq!(metrics.runs_quarantined(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
