//! # The warehouse: N hash-partitioned shards behind one writer
//!
//! [`ShardRouter`] is the only type that mutates, checkpoints or recovers
//! a warehouse. It hash-partitions facts into N shards, each a private
//! engine with its own subcube set, checkpoint chain and WAL, and
//! preserves every single-shard guarantee. At N = 1 over
//! [`MemFs`] ([`ShardRouter::in_memory`]) it is the
//! plain in-memory warehouse of Section 7.
//!
//! * **Routing invariant.** A fact lives on the shard selected by a
//!   finalized hash of its packed bottom key (`KeyPacker`), so the same
//!   cell always routes to the same shard and per-shard reduction is
//!   exactly the source paper's per-subcube reduction restricted to a
//!   disjoint fact partition.
//! * **One lock, one publish point.** Every logical operation runs on
//!   all shards under the router's single writer [`Mutex`] and is then
//!   published as a single pointer swap of an [`Arc<ShardViewSet>`] —
//!   readers always observe all shards at the same logical operation
//!   count, never a torn mix. The shard engines have no locks or swaps
//!   of their own.
//! * **All or nothing in memory.** An operation that fails on any shard
//!   before it is logged restores every shard's saved pre-operation
//!   version and publishes nothing, so `Err` means "as if never issued"
//!   on every shard. This also makes spec evolution decisions uniform:
//!   a rejection on any shard's facts rejects everywhere.
//! * **Uniform WAL position.** Each logical operation appends exactly
//!   one record to *every* shard's WAL (a bulk load ships each shard its
//!   — possibly empty — partition), so record `j` on any shard is
//!   logical operation `j`. After a crash, [`ShardRouter::recover`]
//!   aligns all WALs to the longest common prefix: a record missing from
//!   any shard was never acknowledged, so dropping it from the shards
//!   that hold it restores exactly the acknowledged state. A failed
//!   append wedges the router until that recovery runs.
//!
//! Queries scatter to the per-shard planners and gather with the same
//! distributive merge the per-shard evaluator already uses between
//! subcubes (`union` + one final `aggregate_ids`), so the sharded answer
//! is bit-identical to the single-shard one — `tests/sharding.rs` proves
//! it differentially for N ∈ {1, 2, 4, 7}.
//!
//! On disk (see [`crate::layout`]):
//!
//! ```text
//! <root>/SHARDS            framed: shard count + top-level epoch + CRC
//! <root>/shard-<i:03>/     one complete single-shard warehouse each
//! ```

use std::path::Path;
use std::sync::Arc;

use sdr_sync::{fail, thread, Mutex, MutexGuard, Swap};

use sdr_mdm::{DayNum, DimValue, FxHasher, KeyPacker, Mo, Schema};
use sdr_plan::{QueryPlan, RegionOracle};
use sdr_query::aggregate_ids;
use sdr_reduce::DataReductionSpec;
use sdr_spec::{ActionId, ActionSpec};
use sdr_storage::fs::{atomic_write, Fs, MemFs, RealFs};
use sdr_storage::wal::{crc32, truncate_wal_records};

use crate::durable::{Shard, WalOp, WarehouseOp};
use crate::error::SubcubeError;
use crate::layout::WarehouseLayout;
use crate::manager::{AgeStats, SubcubeManager, SyncStats, WarehouseView};
use crate::persist::{read_current, spec_fingerprint};
use crate::query::CubeQuery;

/// `SHARDS` manifest magic: `"SDRSHD01"`.
const SHARDS_MAGIC: u64 = 0x5344_5253_4844_3031;
/// `SHARDS` manifest format version.
const SHARDS_FORMAT: u32 = 1;

/// The decoded top-level manifest of a sharded warehouse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShardManifest {
    shards: u32,
    epoch: u64,
}

impl ShardManifest {
    fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(28);
        b.extend_from_slice(&SHARDS_MAGIC.to_le_bytes());
        b.extend_from_slice(&SHARDS_FORMAT.to_le_bytes());
        b.extend_from_slice(&self.shards.to_le_bytes());
        b.extend_from_slice(&self.epoch.to_le_bytes());
        b.extend_from_slice(&crc32(&b[..24]).to_le_bytes());
        b
    }

    fn write(&self, fs: &dyn Fs, layout: &WarehouseLayout) -> Result<(), SubcubeError> {
        atomic_write(fs, &layout.shards_manifest(), &self.encode())
            .map_err(|e| SubcubeError::Storage(format!("publishing SHARDS: {e}")))
    }

    fn read(fs: &dyn Fs, layout: &WarehouseLayout) -> Result<ShardManifest, SubcubeError> {
        let path = layout.shards_manifest();
        let bad = |what: &str| SubcubeError::Storage(format!("{}: {what}", path.display()));
        let bytes = fs
            .read(&path)
            .map_err(|e| SubcubeError::Storage(format!("{}: {e}", path.display())))?;
        if bytes.len() != 28 {
            return Err(bad("corrupt shard manifest"));
        }
        if crc32(&bytes[..24]) != u32::from_le_bytes(bytes[24..28].try_into().unwrap()) {
            return Err(bad("shard manifest checksum mismatch"));
        }
        if u64::from_le_bytes(bytes[..8].try_into().unwrap()) != SHARDS_MAGIC {
            return Err(bad("bad shard manifest magic"));
        }
        let format = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if format != SHARDS_FORMAT {
            return Err(bad(&format!("unsupported shard manifest format {format}")));
        }
        let shards = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        if shards == 0 {
            return Err(bad("shard manifest declares zero shards"));
        }
        Ok(ShardManifest {
            shards,
            epoch: u64::from_le_bytes(bytes[16..24].try_into().unwrap()),
        })
    }
}

/// What [`ShardRouter::recover`] found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRecoveryReport {
    /// Number of shards in the recovered warehouse.
    pub shards: usize,
    /// The top-level epoch the warehouse is at after recovery.
    pub epoch: u64,
    /// Log records replayed, summed over all shards.
    pub replayed: usize,
    /// Bytes of torn/corrupt per-shard log tail dropped by CRC scan.
    pub dropped_bytes: usize,
    /// Whole records dropped by cross-shard WAL alignment: they reached
    /// some shards but not all, so the operation was never acknowledged.
    pub dropped_records: usize,
    /// True when recovery finished a checkpoint that a crash had left
    /// applied to only some shards.
    pub resumed_checkpoint: bool,
    /// Total acknowledged operations now reflected in the warehouse
    /// (checkpoint high-water mark + replayed records; identical on every
    /// shard).
    pub ops_durable: u64,
    /// The recovered synchronization watermark.
    pub last_sync: Option<DayNum>,
    /// Cubes whose persisted statistics were verified bit-identical to a
    /// recomputation from the checkpoint's cube files, summed over all
    /// shards (0 for legacy format-1 manifests, which carry no stats).
    pub stats_verified: usize,
}

/// One immutable, internally consistent set of per-shard views — the
/// unit of the cross-shard atomic publish. Readers obtain it with
/// [`ShardRouter::view_set`] and can keep querying it for as long as
/// they like; the writer only ever swaps in a *new* set.
pub struct ShardViewSet {
    epoch: u64,
    views: Vec<WarehouseView>,
    oracles: Vec<Option<RegionOracle>>,
}

impl ShardViewSet {
    /// The publish sequence number of this set (monotone per router).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.views.len()
    }

    /// The pinned per-shard views.
    pub fn views(&self) -> &[WarehouseView] {
        &self.views
    }

    /// The region oracle of shard `i`'s view, built from its cached
    /// reduction schedule (`None` before the first sync) — what
    /// [`query`](ShardViewSet::query) plans with.
    pub fn oracle(&self, i: usize) -> Option<&RegionOracle> {
        self.oracles[i].as_ref()
    }

    /// Total number of physical facts across all shards.
    pub fn len(&self) -> usize {
        self.views.iter().map(|v| v.len()).sum()
    }

    /// True when no shard holds any fact.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The synchronization watermark (identical on every shard — the
    /// router only ever syncs all shards together).
    pub fn last_sync(&self) -> Option<DayNum> {
        self.views[0].last_sync()
    }

    /// Scatter-gather query over the synchronized state: each shard is
    /// evaluated with its own planner (zone-map skips and all) and the
    /// partial answers are merged with the same distributive
    /// `union + aggregate` step the per-shard evaluator uses between
    /// subcubes — so the result is bit-identical to the one-shard path.
    pub fn query(&self, q: &CubeQuery, now: DayNum, parallel: bool) -> Result<Mo, SubcubeError> {
        let _span = sdr_obs::span("shard.query");
        let subs = self.scatter(parallel, |i, inner_parallel| {
            self.views[i].query_planned(q, now, inner_parallel, self.oracles[i].as_ref())
        })?;
        self.gather(q, subs)
    }

    /// Scatter-gather query over the *un*-synchronized state (lazy
    /// virtual sync per shard, then the same distributive merge).
    pub fn query_unsync(
        &self,
        q: &CubeQuery,
        now: DayNum,
        parallel: bool,
    ) -> Result<Mo, SubcubeError> {
        let _span = sdr_obs::span("shard.query_unsync");
        let subs = self.scatter(parallel, |i, inner_parallel| {
            self.views[i].query_unsync(q, now, inner_parallel)
        })?;
        self.gather(q, subs)
    }

    /// The per-shard query plans (for `explain` over the wire).
    pub fn plans(&self, q: &CubeQuery, now: DayNum) -> Vec<QueryPlan> {
        (0..self.views.len())
            .map(|i| self.views[i].plan(q, now, self.oracles[i].as_ref()))
            .collect()
    }

    /// The union of all shards' logical MOs (Definition 2 view of the
    /// whole warehouse).
    pub fn to_mo(&self) -> Result<Mo, SubcubeError> {
        let mut union = self.views[0].to_mo()?;
        for v in &self.views[1..] {
            let part = v.to_mo()?;
            union
                .absorb(&part)
                .map_err(|e| SubcubeError::Storage(e.to_string()))?;
        }
        Ok(union)
    }

    /// Evaluates `f` once per shard, across threads when `parallel` and
    /// more than one shard (each shard then evaluates its cubes
    /// sequentially; with a single shard the inner per-cube parallelism
    /// is used instead). Results keep shard order.
    fn scatter<F>(&self, parallel: bool, f: F) -> Result<Vec<Mo>, SubcubeError>
    where
        F: Fn(usize, bool) -> Result<Mo, SubcubeError> + Sync + Send,
    {
        let n = self.views.len();
        if n == 1 || !parallel {
            return (0..n).map(|i| f(i, parallel)).collect();
        }
        let f = &f;
        thread::scope(|s| {
            let handles: Vec<_> = (0..n).map(|i| s.spawn(move || f(i, false))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard query thread panicked"))
                .collect()
        })
    }

    /// Merges per-shard partial answers: absorb into one MO, then one
    /// final distributive aggregation to the query's grouping levels —
    /// the exact merge the per-shard evaluator applies between subcubes.
    fn gather(&self, q: &CubeQuery, subs: Vec<Mo>) -> Result<Mo, SubcubeError> {
        let mut iter = subs.into_iter();
        let mut union = iter.next().expect("at least one shard");
        if iter.len() == 0 {
            // One shard: its evaluator already applied the final
            // aggregation.
            return Ok(union);
        }
        for part in iter {
            union
                .absorb(&part)
                .map_err(|e| SubcubeError::Storage(e.to_string()))?;
        }
        Ok(aggregate_ids(&union, &q.levels, q.approach)?)
    }
}

/// The writer-side state: the shard vector plus the top-level epoch.
struct RouterInner {
    shards: Vec<Shard>,
    /// Top-level checkpoint epoch (the `SHARDS` manifest's).
    epoch: u64,
    /// Monotone publish counter for view sets.
    set_epoch: u64,
    /// Set when a log append failed: shards may disagree on their WAL
    /// position, so every further mutation is refused until
    /// [`ShardRouter::recover`] re-aligns the WALs. The only wedge.
    broken: bool,
}

/// The warehouse: N hash-partitioned shards, one writer lock, one
/// atomic publish point, aligned crash recovery. See the module docs
/// for the invariants.
pub struct ShardRouter {
    schema: Arc<Schema>,
    packer: Option<KeyPacker>,
    fs: Arc<dyn Fs>,
    layout: WarehouseLayout,
    writer: Mutex<RouterInner>,
    /// The published cross-shard view set: one atomic pointer cell,
    /// swapped wholesale under the writer lock (`sdr-check` model-checks
    /// epoch monotonicity and publish atomicity through this).
    published: Swap<ShardViewSet>,
}

/// SplitMix64 finalizer — decorrelates the packed key's low bits before
/// the modulo picks a shard.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl ShardRouter {
    /// Creates a fresh sharded warehouse with `shards` shards in `dir`.
    pub fn create(
        spec: DataReductionSpec,
        dir: impl AsRef<Path>,
        shards: usize,
    ) -> Result<ShardRouter, SubcubeError> {
        Self::create_with_fs(spec, dir.as_ref(), shards, RealFs::shared())
    }

    /// A fresh one-shard warehouse over its own [`MemFs`]: the in-memory
    /// warehouse. It journals like any other; nothing touches the disk.
    pub fn in_memory(spec: DataReductionSpec) -> ShardRouter {
        Self::create_with_fs(spec, Path::new("/"), 1, MemFs::shared())
            .expect("an empty MemFs always holds a fresh warehouse")
    }

    /// [`ShardRouter::create`] through an explicit [`Fs`].
    pub fn create_with_fs(
        spec: DataReductionSpec,
        dir: &Path,
        shards: usize,
        fs: Arc<dyn Fs>,
    ) -> Result<ShardRouter, SubcubeError> {
        if shards == 0 {
            return Err(SubcubeError::Storage(
                "a sharded warehouse needs at least one shard".into(),
            ));
        }
        let layout = WarehouseLayout::at(dir);
        if fs.exists(&layout.shards_manifest()) {
            return Err(SubcubeError::Storage(format!(
                "{}: already a sharded warehouse directory (use open/recover)",
                dir.display()
            )));
        }
        let mut vec = Vec::with_capacity(shards);
        for i in 0..shards {
            vec.push(Shard::create(
                spec.clone(),
                layout.shard(i),
                Arc::clone(&fs),
            )?);
        }
        // The manifest is written last: a crash mid-create leaves a
        // directory `open` simply re-creates.
        ShardManifest {
            shards: shards as u32,
            epoch: 0,
        }
        .write(fs.as_ref(), &layout)?;
        Ok(Self::assemble(spec, fs, layout, vec, 0))
    }

    /// Opens `dir`: recovers an existing sharded warehouse or creates a
    /// fresh one with `shards` shards when the directory is empty.
    pub fn open(
        spec: DataReductionSpec,
        dir: impl AsRef<Path>,
        shards: usize,
    ) -> Result<ShardRouter, SubcubeError> {
        Self::open_with_fs(spec, dir.as_ref(), shards, RealFs::shared())
    }

    /// [`ShardRouter::open`] through an explicit [`Fs`].
    pub fn open_with_fs(
        spec: DataReductionSpec,
        dir: &Path,
        shards: usize,
        fs: Arc<dyn Fs>,
    ) -> Result<ShardRouter, SubcubeError> {
        if fs.exists(&WarehouseLayout::at(dir).shards_manifest()) {
            Ok(Self::recover_with_fs(spec, dir, fs)?.0)
        } else {
            Self::create_with_fs(spec, dir, shards, fs)
        }
    }

    /// Recovers a sharded warehouse to one consistent cross-shard state.
    ///
    /// Every shard first has its WAL aligned to the longest prefix
    /// present on *all* shards (a record missing anywhere was never
    /// acknowledged), then recovers independently: it loads its live
    /// checkpoint, drops any torn log tail by CRC, and replays the rest.
    /// A crash that left a cross-shard checkpoint half-applied (some
    /// shards already at the next epoch) is finished here: the remaining
    /// shards are checkpointed and the top-level manifest republished.
    pub fn recover(
        spec: DataReductionSpec,
        dir: impl AsRef<Path>,
    ) -> Result<(ShardRouter, ShardRecoveryReport), SubcubeError> {
        Self::recover_with_fs(spec, dir.as_ref(), RealFs::shared())
    }

    /// [`ShardRouter::recover`] through an explicit [`Fs`].
    pub fn recover_with_fs(
        spec: DataReductionSpec,
        dir: &Path,
        fs: Arc<dyn Fs>,
    ) -> Result<(ShardRouter, ShardRecoveryReport), SubcubeError> {
        let _span = sdr_obs::span("shard.recover");
        let layout = WarehouseLayout::at(dir);
        let man = ShardManifest::read(fs.as_ref(), &layout)?;
        let n = man.shards as usize;

        // Classify each shard by its own CURRENT epoch: at the manifest
        // epoch (normal), or one ahead (a crash interrupted the
        // cross-shard checkpoint after this shard completed its part).
        let mut shard_epochs = Vec::with_capacity(n);
        for i in 0..n {
            let e = read_current(fs.as_ref(), layout.shard(i).root())?;
            if e != man.epoch && e != man.epoch + 1 {
                return Err(SubcubeError::Storage(format!(
                    "{}: shard epoch {e} inconsistent with top-level epoch {}",
                    layout.shard(i).root().display(),
                    man.epoch
                )));
            }
            shard_epochs.push(e);
        }
        let resumed = shard_epochs.iter().any(|&e| e == man.epoch + 1);

        // Cross-shard WAL alignment. A checkpoint only runs quiesced,
        // so when one was interrupted every behind shard holds a
        // complete, identical log and no alignment is needed (unequal
        // counts there are corruption, not a torn scatter).
        let mut dropped_records = 0usize;
        let mut counts = Vec::with_capacity(n);
        for (i, &e) in shard_epochs.iter().enumerate() {
            let path = layout.shard(i).wal(e);
            counts.push(if fs.exists(&path) {
                sdr_storage::scan_wal(fs.as_ref(), &path)
                    .map_err(|e| SubcubeError::Storage(e.to_string()))?
                    .records
                    .len()
            } else {
                0
            });
        }
        if resumed {
            let behind: Vec<usize> = (0..n).filter(|&i| shard_epochs[i] == man.epoch).collect();
            if behind.iter().any(|&i| counts[i] != counts[behind[0]]) {
                return Err(SubcubeError::Storage(format!(
                    "{}: shards disagree mid-checkpoint — log counts {counts:?}",
                    dir.display()
                )));
            }
        } else {
            let keep = *counts.iter().min().expect("at least one shard");
            for (i, &c) in counts.iter().enumerate() {
                if c > keep {
                    let path = layout.shard(i).wal(shard_epochs[i]);
                    dropped_records += truncate_wal_records(fs.as_ref(), &path, keep)
                        .map_err(|e| SubcubeError::Storage(e.to_string()))?;
                }
            }
        }

        // Per-shard recovery (each replays its aligned log tail).
        let mut shards = Vec::with_capacity(n);
        let (mut replayed, mut dropped_bytes, mut stats_verified) = (0, 0, 0);
        for i in 0..n {
            let (shard, rep) = Shard::recover(&spec, layout.shard(i), Arc::clone(&fs))?;
            replayed += rep.replayed;
            dropped_bytes += rep.dropped_bytes;
            stats_verified += rep.stats_verified;
            shards.push(shard);
        }

        // Finish an interrupted cross-shard checkpoint.
        let epoch = if resumed {
            for shard in shards.iter_mut() {
                if shard.epoch == man.epoch {
                    shard.checkpoint(false)?;
                }
            }
            let next = man.epoch + 1;
            ShardManifest {
                shards: n as u32,
                epoch: next,
            }
            .write(fs.as_ref(), &layout)?;
            next
        } else {
            man.epoch
        };

        // The recovered shards must agree on the evolved specification,
        // the sync watermark and the acknowledged operation count —
        // anything else is corruption.
        let view0 = shards[0].engine.view();
        let fp0 = spec_fingerprint(view0.spec());
        let ops0 = shards[0].ops_durable();
        for shard in &shards[1..] {
            let v = shard.engine.view();
            if spec_fingerprint(v.spec()) != fp0
                || v.last_sync() != view0.last_sync()
                || shard.ops_durable() != ops0
            {
                return Err(SubcubeError::Storage(format!(
                    "{}: shards recovered to divergent states",
                    dir.display()
                )));
            }
        }

        let report = ShardRecoveryReport {
            shards: n,
            epoch,
            replayed,
            dropped_bytes,
            dropped_records,
            resumed_checkpoint: resumed,
            ops_durable: ops0,
            last_sync: view0.last_sync(),
            stats_verified,
        };
        Ok((Self::assemble(spec, fs, layout, shards, epoch), report))
    }

    fn assemble(
        spec: DataReductionSpec,
        fs: Arc<dyn Fs>,
        layout: WarehouseLayout,
        shards: Vec<Shard>,
        epoch: u64,
    ) -> ShardRouter {
        let schema = Arc::clone(spec.schema());
        let packer = KeyPacker::new(&schema);
        let mut inner = RouterInner {
            shards,
            epoch,
            set_epoch: 0,
            broken: false,
        };
        let set = Self::snapshot(&mut inner);
        ShardRouter {
            schema,
            packer,
            fs,
            layout,
            writer: Mutex::new(inner),
            published: Swap::new(set),
        }
    }

    // ---- read side -----------------------------------------------------

    /// The currently published cross-shard view set — one atomic
    /// pointer read; the set stays valid for as long as the caller
    /// holds it.
    pub fn view_set(&self) -> Arc<ShardViewSet> {
        self.published.load()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.view_set().shards()
    }

    /// The top-level checkpoint epoch.
    pub fn epoch(&self) -> u64 {
        self.writer.lock().epoch
    }

    /// Total facts across all shards (current published set).
    pub fn len(&self) -> usize {
        self.view_set().len()
    }

    /// True when no shard holds any fact.
    pub fn is_empty(&self) -> bool {
        self.view_set().is_empty()
    }

    /// The synchronization watermark.
    pub fn last_sync(&self) -> Option<DayNum> {
        self.view_set().last_sync()
    }

    /// The schema the warehouse is defined over.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The current (possibly evolved) specification.
    pub fn spec(&self) -> Arc<DataReductionSpec> {
        Arc::clone(&self.view_set().views[0].v.spec)
    }

    /// Acknowledged durable operations (identical on every shard by the
    /// uniform-WAL-position invariant).
    pub fn ops_durable(&self) -> u64 {
        self.writer.lock().shards[0].ops_durable()
    }

    /// True when a failed log append wedged the router (recover to fix).
    pub fn is_broken(&self) -> bool {
        self.writer.lock().broken
    }

    /// Convenience scatter-gather query on the current published set.
    pub fn query(&self, q: &CubeQuery, now: DayNum, parallel: bool) -> Result<Mo, SubcubeError> {
        self.view_set().query(q, now, parallel)
    }

    /// Convenience unsynchronized query on the current published set.
    pub fn query_unsync(
        &self,
        q: &CubeQuery,
        now: DayNum,
        parallel: bool,
    ) -> Result<Mo, SubcubeError> {
        self.view_set().query_unsync(q, now, parallel)
    }

    // ---- routing -------------------------------------------------------

    /// The shard a cell routes to: SplitMix64-finalized hash of the
    /// packed key, modulo the shard count. Schemas too wide to pack
    /// (>128 bits) fall back to an Fx hash over the raw `(cat, code)`
    /// pairs — still a pure function of the cell.
    pub fn route(&self, coords: &[DimValue], shards: usize) -> usize {
        let h = match &self.packer {
            Some(p) => {
                let k = p.pack_coords(coords);
                mix64((k as u64) ^ ((k >> 64) as u64))
            }
            None => {
                use std::hash::Hasher;
                let mut fx = FxHasher::default();
                for v in coords {
                    fx.write_u64(((v.cat.0 as u64) << 32) | v.code);
                }
                mix64(fx.finish())
            }
        };
        (h % shards as u64) as usize
    }

    /// Splits `mo` into one (possibly empty) partition per shard.
    fn partition(&self, mo: &Mo, shards: usize) -> Result<Vec<Mo>, SubcubeError> {
        if shards == 1 {
            return Ok(vec![mo.clone()]);
        }
        let mut parts: Vec<Mo> = (0..shards).map(|_| mo.empty_like()).collect();
        let store = mo.store();
        for f in mo.facts() {
            let coords = mo.coords(f);
            let i = self.route(&coords, shards);
            parts[i]
                .insert_fact_at(&coords, &mo.measures_of(f), store.origin[f.index()])
                .map_err(|e| SubcubeError::Storage(e.to_string()))?;
        }
        Ok(parts)
    }

    // ---- write side ----------------------------------------------------

    fn guard(inner: &RouterInner) -> Result<(), SubcubeError> {
        if inner.broken {
            return Err(SubcubeError::Storage(
                "sharded warehouse wedged by a failed scatter; \
                 drop it and ShardRouter::recover the directory"
                    .into(),
            ));
        }
        Ok(())
    }

    fn snapshot(inner: &mut RouterInner) -> Arc<ShardViewSet> {
        inner.set_epoch += 1;
        let mut views = Vec::with_capacity(inner.shards.len());
        let mut oracles = Vec::with_capacity(inner.shards.len());
        for shard in &mut inner.shards {
            let view = shard.engine.view();
            oracles.push(shard.engine.region_oracle(&view));
            views.push(view);
        }
        Arc::new(ShardViewSet {
            epoch: inner.set_epoch,
            views,
            oracles,
        })
    }

    /// The single publish point: builds a fresh view set from all shards
    /// under the writer lock (so no shard can move) and swaps the
    /// published pointer, then releases the lock.
    fn publish(&self, mut inner: MutexGuard<'_, RouterInner>) {
        let set = Self::snapshot(&mut inner);
        let epoch = set.epoch;
        // `mgr.publish-unlocked` is a model-only mutation: storing the
        // set after releasing the writer lock lets a slower writer
        // overwrite a newer set (a lost publish, an epoch going
        // backwards) — the bug `specdr check epoch` must catch.
        if fail::point("mgr.publish-unlocked") {
            drop(inner);
            self.published.store(set);
        } else {
            self.published.store(set);
            drop(inner);
        }
        if sdr_obs::enabled() {
            sdr_obs::inc("subcube.publish.count");
            sdr_obs::gauge_set("subcube.epoch", epoch as i64);
        }
    }

    /// The one write path. Under the writer lock: saves every shard's
    /// version, applies `f` to each shard's engine (across threads when
    /// `parallel`), journals each shard's records (`group`: as one group
    /// record), and publishes. An in-memory failure on any shard
    /// restores every saved version and publishes nothing; a failed
    /// append also wedges the router, since shards may now disagree on
    /// their WAL position.
    fn write<T: Send>(
        &self,
        span: &'static str,
        parallel: bool,
        group: bool,
        f: impl Fn(usize, &mut SubcubeManager) -> Result<(T, Vec<WalOp>), SubcubeError> + Sync,
    ) -> Result<Vec<T>, SubcubeError> {
        let mut inner = self.writer.lock();
        Self::guard(&inner)?;
        let _span = sdr_obs::span(span);
        let saved: Vec<WarehouseView> = inner.shards.iter().map(|s| s.engine.view()).collect();
        let mut values = Vec::with_capacity(saved.len());
        let mut records = Vec::with_capacity(saved.len());
        let mut failed = None;
        for r in Self::fanout(&mut inner.shards, parallel, |i, s| f(i, &mut s.engine)) {
            match r {
                Ok((v, ops)) => {
                    values.push(v);
                    records.push(ops);
                }
                Err(e) => {
                    failed.get_or_insert(e);
                }
            }
        }
        if let Some(e) = failed {
            // Nothing was logged: restoring the saved versions makes the
            // failure "as if never issued". `durable.skip-rollback` is a
            // model-only mutation: leaving the half-applied operation in
            // the engines (to surface at the next publish) is exactly
            // the bug `specdr check group-commit` must catch.
            if !fail::point("durable.skip-rollback") {
                Self::restore(&mut inner, saved);
            }
            return Err(e);
        }
        let logged = (inner.shards.iter_mut())
            .zip(&records)
            .try_for_each(|(shard, ops)| shard.log(ops, group));
        if let Err(e) = logged {
            Self::restore(&mut inner, saved);
            // `shard.skip-wedge` is a model-only mutation: leaving the
            // router unwedged after a failed append is exactly the bug
            // `specdr check shard` must catch.
            if !fail::point("shard.skip-wedge") {
                inner.broken = true;
            }
            return Err(SubcubeError::Storage(format!(
                "scatter diverged across shards ({e}); recovery required"
            )));
        }
        self.publish(inner);
        Ok(values)
    }

    fn restore(inner: &mut RouterInner, saved: Vec<WarehouseView>) {
        for (shard, view) in inner.shards.iter_mut().zip(saved) {
            shard.engine.restore(view);
        }
    }

    /// Runs `f` on every shard, concurrently when `parallel` and N > 1
    /// (each shard is `&mut` to exactly one thread), preserving shard
    /// order in the results.
    fn fanout<T: Send>(
        shards: &mut [Shard],
        parallel: bool,
        f: impl Fn(usize, &mut Shard) -> Result<T, SubcubeError> + Sync,
    ) -> Vec<Result<T, SubcubeError>> {
        if !parallel || shards.len() == 1 {
            return shards
                .iter_mut()
                .enumerate()
                .map(|(i, s)| f(i, s))
                .collect();
        }
        let f = &f;
        thread::scope(|s| {
            let handles: Vec<_> = shards
                .iter_mut()
                .enumerate()
                .map(|(i, sh)| s.spawn(move || f(i, sh)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        })
    }

    /// Durable, partitioned bulk load (Section 7.2: new data enters the
    /// bottom cube). Every shard logs one record (its own partition,
    /// possibly empty) so WAL positions stay uniform.
    pub fn bulk_load(&self, facts: &Mo) -> Result<usize, SubcubeError> {
        if facts.schema().fact_type != self.schema.fact_type {
            return Err(SubcubeError::Reduce(sdr_reduce::ReduceError::Model(
                sdr_mdm::MdmError::SchemaMismatch("bulk load schema".into()),
            )));
        }
        let parts = self.partition(facts, self.shards())?;
        let loaded = self.write("shard.bulk_load", false, false, |i, e| {
            let rec = WalOp::bulk_load(&parts[i])?;
            Ok((e.bulk_load(&parts[i])?, vec![rec]))
        })?;
        Ok(loaded.into_iter().sum())
    }

    /// Durable parallel synchronization (Section 7.2): every shard
    /// syncs to `now` concurrently, then one atomic publish exposes all
    /// of them.
    pub fn sync(&self, now: DayNum) -> Result<SyncStats, SubcubeError> {
        let stats = self.write("shard.sync", true, false, |_, e| {
            Ok((e.sync(now)?, vec![WalOp::Sync(now)]))
        })?;
        Ok(stats.into_iter().fold(SyncStats::default(), |mut a, s| {
            a.kept += s.kept;
            a.migrated += s.migrated;
            a.merged += s.merged;
            a
        }))
    }

    /// Durable parallel incremental aging to `until`: each shard applies
    /// the spec's transition-day ticks, re-reducing only the cubes a tick
    /// touches; the result equals a from-scratch `sync(until)`. `until`
    /// before the watermark is rejected ([`SubcubeError::AgeBeforeWatermark`]).
    pub fn age(&self, until: DayNum) -> Result<AgeStats, SubcubeError> {
        let stats = self.write("shard.age", true, false, |_, e| {
            Ok((e.age(until)?, vec![WalOp::Age(until)]))
        })?;
        Ok(stats.into_iter().fold(AgeStats::default(), |mut a, s| {
            a.ticks = a.ticks.max(s.ticks);
            a.cells_delta += s.cells_delta;
            a.merged += s.merged;
            a.cubes_rebuilt += s.cubes_rebuilt;
            a.cubes_skipped += s.cubes_skipped;
            a
        }))
    }

    /// Durable specification insert (Definition 3). All facts are staged
    /// in the bottom cube and redistributed by the next sync. A
    /// Growing/NonCrossing rejection leaves every shard unchanged.
    pub fn spec_insert(&self, new: Vec<ActionSpec>) -> Result<Vec<ActionId>, SubcubeError> {
        let rec = WalOp::spec_insert(&self.schema, &new)?;
        let mut ids = self.write("shard.spec_insert", false, false, |_, e| {
            Ok((e.evolve_insert(new.clone())?, vec![rec.clone()]))
        })?;
        Ok(ids.swap_remove(0))
    }

    /// Durable specification delete (Definition 4), checked against the
    /// facts at `now`. The responsibility check is per fact, so a
    /// rejection on any shard is the rejection the union of all shards'
    /// facts would get; it leaves every shard unchanged.
    pub fn spec_delete(&self, ids: &[ActionId], now: DayNum) -> Result<(), SubcubeError> {
        let rec = WalOp::SpecDelete(ids.iter().map(|i| i.0).collect(), now);
        self.write("shard.spec_delete", false, false, |_, e| {
            Ok((e.evolve_delete(ids, now)?, vec![rec.clone()]))
        })?;
        Ok(())
    }

    /// Group commit: applies a batch of operations and journals them as
    /// **one** record per shard — one write, one fsync — so durability
    /// cost is paid per batch, not per operation. Each shard receives the
    /// same operation sequence (bulk loads partitioned). On `Ok`, every
    /// operation of the batch is durable; on `Err` none is and nothing
    /// was published. Returns the number of operations committed.
    pub fn apply_batch(&self, ops: Vec<WarehouseOp>) -> Result<usize, SubcubeError> {
        if ops.is_empty() {
            Self::guard(&self.writer.lock())?;
            return Ok(0);
        }
        let n = self.shards();
        let mut batches: Vec<Vec<WarehouseOp>> = (0..n).map(|_| Vec::new()).collect();
        for op in ops {
            match op {
                WarehouseOp::BulkLoad(mo) => {
                    for (b, part) in batches.iter_mut().zip(self.partition(&mo, n)?) {
                        b.push(WarehouseOp::BulkLoad(part));
                    }
                }
                other => {
                    for b in batches.iter_mut() {
                        b.push(other.clone());
                    }
                }
            }
        }
        let counts = self.write("shard.apply_batch", false, true, |i, e| {
            let records = batches[i]
                .iter()
                .map(|op| op.apply(e))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((records.len(), records))
        })?;
        Ok(counts.into_iter().max().unwrap_or(0))
    }

    /// Cross-shard checkpoint: folds every shard's log into a fresh
    /// checkpoint, then bumps the top-level epoch. A crash anywhere in
    /// the sequence is repaired by [`ShardRouter::recover`] (behind
    /// shards are checkpointed on recovery — the manifest is written
    /// only after every shard completed).
    pub fn checkpoint(&self) -> Result<u64, SubcubeError> {
        self.checkpoint_fmt(false)
    }

    /// Writes the next checkpoint exactly as the format-2 checkpointer
    /// did: `SDRFACT1` cube files without dictionary/bit-packed columns
    /// and a format-2 manifest (legacy-projected stats, no byte table).
    /// **For the storage-format migration tests only** — it fabricates
    /// an old warehouse directory so the suite can prove that current
    /// code loads it and re-checkpoints it as format 3.
    #[doc(hidden)]
    pub fn checkpoint_legacy_format2(&self) -> Result<u64, SubcubeError> {
        self.checkpoint_fmt(true)
    }

    fn checkpoint_fmt(&self, legacy: bool) -> Result<u64, SubcubeError> {
        let mut inner = self.writer.lock();
        Self::guard(&inner)?;
        let _span = sdr_obs::span("shard.checkpoint");
        for i in 0..inner.shards.len() {
            if let Err(e) = inner.shards[i].checkpoint(legacy) {
                inner.broken = true;
                return Err(e);
            }
        }
        let next = inner.epoch + 1;
        let man = ShardManifest {
            shards: inner.shards.len() as u32,
            epoch: next,
        };
        if let Err(e) = man.write(self.fs.as_ref(), &self.layout) {
            inner.broken = true;
            return Err(e);
        }
        inner.epoch = next;
        Ok(next)
    }

    /// The warehouse root directory.
    pub fn dir(&self) -> &Path {
        self.layout.root()
    }
}
