//! One shard's durability: its engine behind a write-ahead log and
//! atomic checkpoints.
//!
//! Irreversible reduction makes durability *more* critical than in an
//! ordinary warehouse — an aggregate lost to a torn write cannot be
//! recomputed from detail that was already purged. Every state-changing
//! operation (bulk loads, sync and aging passes, and specification
//! `insert`/`delete`) is therefore journaled as a CRC-checksummed
//! [`WalOp`] record *before* it is acknowledged, and checkpoints
//! periodically fold the log into an atomic snapshot (see
//! [`crate::persist`]). Recovery loads the live checkpoint and
//! deterministically replays the log tail; torn or corrupt tail records
//! are detected by checksum and dropped — they were never acknowledged,
//! so dropping them restores exactly the committed state.
//!
//! The contract, proven by the fault-injection matrix in
//! `tests/durability.rs`: an operation that returned `Ok` survives any
//! subsequent crash; an operation that returned `Err` (or never
//! returned) leaves the recovered warehouse as if it was never issued.
//!
//! # Group commit
//!
//! [`ShardRouter::apply_batch`](crate::ShardRouter::apply_batch)
//! journals a whole batch of operations as **one** WAL record per shard
//! (one write, one fsync) packed with [`sdr_storage::pack_group`].
//! Because the batch travels inside a single CRC frame, an acknowledged
//! batch survives in full, and a crash mid-append drops the batch in
//! full — a *partially* recovered batch is structurally impossible.
//!
//! `Shard` is private to the crate: the router owns one per shard and
//! is the only type that mutates, checkpoints or recovers a warehouse.

use std::sync::Arc;

use sdr_mdm::{DayNum, Mo};
use sdr_reduce::{DataReductionSpec, ReduceError};
use sdr_spec::{parse_action, ActionId, ActionSpec};
use sdr_storage::fs::Fs;
use sdr_storage::{FactTable, Wal};
use sdr_sync::fail;

use crate::error::SubcubeError;
use crate::layout::WarehouseLayout;
use crate::manager::SubcubeManager;
use crate::persist::{
    load_checkpoint, read_current, read_manifest_at, spec_from_manifest, sweep_garbage,
    write_checkpoint, write_checkpoint_fmt, write_current,
};

/// One logged warehouse operation — the unit of replay.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// New bottom-granularity facts, serialized as an `sdr-storage` fact
    /// table.
    BulkLoad(Vec<u8>),
    /// A synchronization pass at a day. Sync is deterministic, so
    /// logging the day is enough to replay the collapse/advance it
    /// performed.
    Sync(DayNum),
    /// Actions inserted into the specification, in source form (the
    /// rendered action round-trips through the parser).
    SpecInsert(Vec<String>),
    /// Actions deleted from the specification at a day.
    SpecDelete(Vec<u32>, DayNum),
    /// An incremental aging pass to a day.
    /// Aging is deterministic (the tick sequence is derived from the
    /// spec's transition schedule), so logging the target day is enough
    /// to replay every tick it applied.
    Age(DayNum),
}

impl WalOp {
    const TAG_BULK_LOAD: u8 = 1;
    const TAG_SYNC: u8 = 2;
    const TAG_SPEC_INSERT: u8 = 3;
    const TAG_SPEC_DELETE: u8 = 4;
    const TAG_AGE: u8 = 5;

    /// Serializes the operation into a WAL record payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        match self {
            WalOp::BulkLoad(table) => {
                b.push(Self::TAG_BULK_LOAD);
                b.extend_from_slice(table);
            }
            WalOp::Sync(now) => {
                b.push(Self::TAG_SYNC);
                b.extend_from_slice(&i64::from(*now).to_le_bytes());
            }
            WalOp::Age(until) => {
                b.push(Self::TAG_AGE);
                b.extend_from_slice(&i64::from(*until).to_le_bytes());
            }
            WalOp::SpecInsert(srcs) => {
                b.push(Self::TAG_SPEC_INSERT);
                b.extend_from_slice(&(srcs.len() as u32).to_le_bytes());
                for s in srcs {
                    b.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    b.extend_from_slice(s.as_bytes());
                }
            }
            WalOp::SpecDelete(ids, now) => {
                b.push(Self::TAG_SPEC_DELETE);
                b.extend_from_slice(&(ids.len() as u32).to_le_bytes());
                for id in ids {
                    b.extend_from_slice(&id.to_le_bytes());
                }
                b.extend_from_slice(&i64::from(*now).to_le_bytes());
            }
        }
        b
    }

    /// Decodes a WAL record payload.
    pub fn decode(payload: &[u8]) -> Result<WalOp, SubcubeError> {
        let bad = |what: &str| SubcubeError::Storage(format!("wal record: {what}"));
        let (&tag, rest) = payload.split_first().ok_or_else(|| bad("empty record"))?;
        let mut pos = 0usize;
        let mut take = |n: usize| -> Result<&[u8], SubcubeError> {
            let s = rest
                .get(pos..pos + n)
                .ok_or_else(|| bad("truncated record"))?;
            pos += n;
            Ok(s)
        };
        let op = match tag {
            Self::TAG_BULK_LOAD => WalOp::BulkLoad(rest.to_vec()),
            Self::TAG_SYNC => {
                let raw = i64::from_le_bytes(take(8)?.try_into().unwrap());
                WalOp::Sync(DayNum::try_from(raw).map_err(|_| bad("day out of range"))?)
            }
            Self::TAG_AGE => {
                let raw = i64::from_le_bytes(take(8)?.try_into().unwrap());
                WalOp::Age(DayNum::try_from(raw).map_err(|_| bad("day out of range"))?)
            }
            Self::TAG_SPEC_INSERT => {
                let n = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
                let mut srcs = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let len = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
                    let s = String::from_utf8(take(len)?.to_vec())
                        .map_err(|_| bad("action source is not UTF-8"))?;
                    srcs.push(s);
                }
                WalOp::SpecInsert(srcs)
            }
            Self::TAG_SPEC_DELETE => {
                let n = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
                let mut ids = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    ids.push(u32::from_le_bytes(take(4)?.try_into().unwrap()));
                }
                let raw = i64::from_le_bytes(take(8)?.try_into().unwrap());
                WalOp::SpecDelete(
                    ids,
                    DayNum::try_from(raw).map_err(|_| bad("day out of range"))?,
                )
            }
            other => return Err(bad(&format!("unknown op tag {other}"))),
        };
        Ok(op)
    }

    /// Applies the operation to an engine (replay path — must mirror the
    /// live path byte for byte).
    fn replay(&self, mgr: &mut SubcubeManager) -> Result<(), SubcubeError> {
        match self {
            WalOp::BulkLoad(table) => {
                let t = FactTable::deserialize(Arc::clone(mgr.schema()), table)
                    .map_err(|e| SubcubeError::Storage(e.to_string()))?;
                let mo = t
                    .to_mo()
                    .map_err(|e| SubcubeError::Storage(e.to_string()))?;
                mgr.bulk_load(&mo)?;
            }
            WalOp::Sync(now) => {
                mgr.sync(*now)?;
            }
            WalOp::Age(until) => {
                mgr.age(*until)?;
            }
            WalOp::SpecInsert(srcs) => {
                let schema = Arc::clone(mgr.schema());
                let actions: Result<Vec<ActionSpec>, _> =
                    srcs.iter().map(|s| parse_action(&schema, s)).collect();
                mgr.evolve_insert(actions.map_err(ReduceError::Spec)?)?;
            }
            WalOp::SpecDelete(ids, now) => {
                let ids: Vec<ActionId> = ids.iter().map(|&i| ActionId(i)).collect();
                mgr.evolve_delete(&ids, *now)?;
            }
        }
        Ok(())
    }
}

/// A warehouse mutation, the caller-facing unit of a group-committed
/// batch (see [`ShardRouter::apply_batch`](crate::ShardRouter::apply_batch)).
#[derive(Debug, Clone)]
pub enum WarehouseOp {
    /// Bulk-load bottom-granularity facts.
    BulkLoad(Mo),
    /// Synchronize the cubes to a day.
    Sync(DayNum),
    /// Incrementally age the cubes to a day.
    Age(DayNum),
    /// Insert actions into the specification.
    SpecInsert(Vec<ActionSpec>),
    /// Delete actions from the specification at a day.
    SpecDelete(Vec<ActionId>, DayNum),
}

impl WarehouseOp {
    /// Applies the operation to an engine and returns its log record.
    /// The record replays to exactly this state change.
    pub(crate) fn apply(&self, mgr: &mut SubcubeManager) -> Result<WalOp, SubcubeError> {
        Ok(match self {
            WarehouseOp::BulkLoad(mo) => {
                let rec = WalOp::bulk_load(mo)?;
                mgr.bulk_load(mo)?;
                rec
            }
            WarehouseOp::Sync(now) => {
                mgr.sync(*now)?;
                WalOp::Sync(*now)
            }
            WarehouseOp::Age(until) => {
                mgr.age(*until)?;
                WalOp::Age(*until)
            }
            WarehouseOp::SpecInsert(new) => {
                let rec = WalOp::spec_insert(mgr.schema(), new)?;
                mgr.evolve_insert(new.clone())?;
                rec
            }
            WarehouseOp::SpecDelete(ids, now) => {
                mgr.evolve_delete(ids, *now)?;
                WalOp::SpecDelete(ids.iter().map(|i| i.0).collect(), *now)
            }
        })
    }
}

impl WalOp {
    /// The record of a bulk load of `facts`.
    pub(crate) fn bulk_load(facts: &Mo) -> Result<WalOp, SubcubeError> {
        let mut t = FactTable::from_mo(facts, sdr_storage::DEFAULT_SEGMENT_ROWS)
            .map_err(|e| SubcubeError::Storage(e.to_string()))?;
        Ok(WalOp::BulkLoad(t.serialize()))
    }

    /// The record of a specification insert. The log must replay to the
    /// identical spec, so actions whose rendering does not round-trip
    /// through the parser are rejected (none known).
    pub(crate) fn spec_insert(
        schema: &Arc<sdr_mdm::Schema>,
        new: &[ActionSpec],
    ) -> Result<WalOp, SubcubeError> {
        let srcs: Vec<String> = new.iter().map(|a| a.render(schema)).collect();
        for (src, a) in srcs.iter().zip(new) {
            let back = parse_action(schema, src).map_err(ReduceError::Spec)?;
            if back != *a {
                return Err(SubcubeError::Storage(format!(
                    "action does not round-trip through its rendering: {src}"
                )));
            }
        }
        Ok(WalOp::SpecInsert(srcs))
    }
}

/// What recovering one shard found and did.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardReplay {
    /// Operations replayed on top of the checkpoint (a group-committed
    /// batch record counts once per operation it carries).
    pub(crate) replayed: usize,
    /// Bytes of torn/corrupt log tail detected by CRC and dropped.
    pub(crate) dropped_bytes: usize,
    /// Cubes whose persisted statistics were verified against a
    /// recomputation (0 for legacy format-1 manifests).
    pub(crate) stats_verified: usize,
}

/// One shard: its engine, its log and its checkpoint chain. Owned by the
/// router and mutated only under the router's writer lock.
pub(crate) struct Shard {
    pub(crate) engine: SubcubeManager,
    fs: Arc<dyn Fs>,
    layout: WarehouseLayout,
    /// The live checkpoint epoch.
    pub(crate) epoch: u64,
    wal: Wal,
    /// Operations folded into the live checkpoint (cumulative).
    hwm: u64,
    /// Operations carried by the live log (a group-committed batch record
    /// counts once per operation — [`Wal::records`] counts frames).
    ops_in_log: u64,
}

impl Shard {
    /// Creates a fresh shard at `layout` (epoch 0 checkpoint of the empty
    /// engine plus an empty log). Fails if the directory already holds
    /// one.
    pub(crate) fn create(
        spec: DataReductionSpec,
        layout: WarehouseLayout,
        fs: Arc<dyn Fs>,
    ) -> Result<Shard, SubcubeError> {
        let dir = layout.root();
        if fs.exists(&layout.current()) {
            return Err(SubcubeError::Storage(format!(
                "{}: already a warehouse directory (use open/recover)",
                dir.display()
            )));
        }
        let engine = SubcubeManager::new(spec);
        write_checkpoint(&engine.view(), fs.as_ref(), dir, 0, 0)?;
        let wal = Wal::create(Arc::clone(&fs), layout.wal(0), 0)
            .map_err(|e| SubcubeError::Storage(e.to_string()))?;
        write_current(fs.as_ref(), dir, 0)?;
        Ok(Shard {
            engine,
            fs,
            layout,
            epoch: 0,
            wal,
            hwm: 0,
            ops_in_log: 0,
        })
    }

    /// Recovers a shard: loads the live checkpoint, truncates any torn
    /// log tail, and replays the surviving records.
    pub(crate) fn recover(
        spec: &DataReductionSpec,
        layout: WarehouseLayout,
        fs: Arc<dyn Fs>,
    ) -> Result<(Shard, ShardReplay), SubcubeError> {
        let _span = sdr_obs::span("durable.recover");
        let dir = layout.root();
        let epoch = read_current(fs.as_ref(), dir)?;
        // The specification is durable state: journaled `insert`/`delete`
        // operations may have evolved it past what the caller configured,
        // so the checkpoint's own spec (exact action ids + insert counter,
        // from the manifest) is authoritative. The caller's spec supplies
        // the schema to parse it against.
        let manifest = read_manifest_at(fs.as_ref(), dir, epoch)?;
        let ckpt_spec = spec_from_manifest(spec.schema(), &manifest)?;
        let (mut engine, manifest) = load_checkpoint(ckpt_spec, fs.as_ref(), dir, epoch)?;
        let wal_path = layout.wal(epoch);
        let (wal, records, dropped_bytes) = if fs.exists(&wal_path) {
            let (wal, scan) = Wal::open(Arc::clone(&fs), wal_path)
                .map_err(|e| SubcubeError::Storage(e.to_string()))?;
            if scan.epoch != epoch {
                return Err(SubcubeError::Storage(format!(
                    "{}: log epoch {} does not match checkpoint epoch {epoch}",
                    wal.path().display(),
                    scan.epoch
                )));
            }
            (wal, scan.records, scan.dropped_bytes)
        } else {
            // A checkpoint published without its log (crash in the
            // narrow window between the two) has nothing to replay.
            let wal = Wal::create(Arc::clone(&fs), wal_path, epoch)
                .map_err(|e| SubcubeError::Storage(e.to_string()))?;
            (wal, Vec::new(), 0)
        };
        let replay_span = sdr_obs::span("durable.recover.replay");
        let mut replayed = 0usize;
        for payload in &records {
            // A group-committed batch: the frame's CRC already proved it
            // complete, so every packed operation replays (or none of
            // the record survived the torn-tail scan).
            let unpacked;
            let parts: Vec<&[u8]> = if sdr_storage::is_group(payload) {
                unpacked = sdr_storage::unpack_group(payload)
                    .map_err(|e| SubcubeError::Storage(e.to_string()))?;
                unpacked.iter().map(Vec::as_slice).collect()
            } else {
                vec![payload]
            };
            for part in parts {
                let _op_span = sdr_obs::span("durable.recover.replay_op");
                WalOp::decode(part)?.replay(&mut engine)?;
                replayed += 1;
            }
        }
        drop(replay_span);
        // Replay drives the ordinary mutators, which maintain per-cube
        // stats as they go; re-assert the no-drift invariant on the final
        // recovered state (the persisted copy was already verified
        // against the checkpoint files in `load_checkpoint`).
        engine.view().verify_stats()?;
        if sdr_obs::enabled() {
            sdr_obs::inc("durable.recover.runs");
            sdr_obs::add("durable.recover.records_replayed", replayed as u64);
            sdr_obs::add("durable.recover.dropped_bytes", dropped_bytes as u64);
            sdr_obs::add(
                "durable.recover.stats_verified",
                manifest.cube_stats.len() as u64,
            );
        }
        let replay = ShardReplay {
            replayed,
            dropped_bytes,
            stats_verified: manifest.cube_stats.len(),
        };
        let shard = Shard {
            engine,
            fs,
            layout,
            epoch,
            wal,
            hwm: manifest.wal_hwm,
            ops_in_log: replayed as u64,
        };
        Ok((shard, replay))
    }

    /// Total acknowledged (durable) operations: every operation with an
    /// index below this value survives any crash.
    pub(crate) fn ops_durable(&self) -> u64 {
        self.hwm + self.ops_in_log
    }

    /// Journals already-applied operations: one plain record for a single
    /// operation, one group record for a batch.
    pub(crate) fn log(&mut self, ops: &[WalOp], group: bool) -> Result<(), SubcubeError> {
        // `durable.wal-fail` injects an append failure so the checker
        // can drive the wedge path deterministically.
        if fail::point("durable.wal-fail") {
            return Err(SubcubeError::Storage(
                "wal append failed: injected fault".into(),
            ));
        }
        let encoded: Vec<Vec<u8>> = ops.iter().map(WalOp::encode).collect();
        let appended = if group {
            self.wal.append_group(&encoded)
        } else {
            debug_assert_eq!(encoded.len(), 1, "a plain record carries one op");
            self.wal.append(&encoded[0])
        };
        appended.map_err(|e| SubcubeError::Storage(format!("wal append failed: {e}")))?;
        self.ops_in_log += ops.len() as u64;
        if group && sdr_obs::enabled() {
            sdr_obs::inc("durable.group_commit.batches");
            sdr_obs::add("durable.group_commit.ops", ops.len() as u64);
        }
        Ok(())
    }

    /// Folds the log into a new atomic checkpoint, rotates to a fresh
    /// log, and sweeps the superseded epoch. `legacy` writes the format-2
    /// layout (for the storage-migration tests only). Returns the new
    /// epoch.
    pub(crate) fn checkpoint(&mut self, legacy: bool) -> Result<u64, SubcubeError> {
        let dir = self.layout.root();
        let next = self.epoch + 1;
        let hwm = self.ops_durable();
        write_checkpoint_fmt(
            &self.engine.view(),
            self.fs.as_ref(),
            dir,
            next,
            hwm,
            legacy,
        )?;
        let wal = Wal::create(Arc::clone(&self.fs), self.layout.wal(next), next)
            .map_err(|e| SubcubeError::Storage(e.to_string()))?;
        write_current(self.fs.as_ref(), dir, next)?;
        self.wal = wal;
        self.epoch = next;
        self.hwm = hwm;
        self.ops_in_log = 0;
        sweep_garbage(self.fs.as_ref(), dir, next);
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::wal_name;
    use crate::ShardRouter;
    use sdr_mdm::calendar::days_from_civil;
    use sdr_storage::RealFs;
    use sdr_workload::{paper_mo, ACTION_A1, ACTION_A2};
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "sdr-durable-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn paper_spec() -> (Mo, DataReductionSpec) {
        let (mo, _) = paper_mo();
        let schema = Arc::clone(mo.schema());
        let a1 = parse_action(&schema, ACTION_A1).unwrap();
        let a2 = parse_action(&schema, ACTION_A2).unwrap();
        (mo, DataReductionSpec::new(schema, vec![a1, a2]).unwrap())
    }

    fn rows(w: &ShardRouter) -> Vec<String> {
        let mo = w.view_set().to_mo().unwrap();
        let mut v: Vec<String> = mo.facts().map(|f| mo.render_fact(f)).collect();
        v.sort();
        v
    }

    #[test]
    fn wal_op_codec_roundtrips() {
        let (mo, _) = paper_spec();
        let mut t = FactTable::from_mo(&mo, 4).unwrap();
        let ops = vec![
            WalOp::BulkLoad(t.serialize()),
            WalOp::Sync(days_from_civil(2000, 6, 5)),
            WalOp::SpecInsert(vec![ACTION_A1.into(), ACTION_A2.into()]),
            WalOp::SpecDelete(vec![0, 3], days_from_civil(2001, 1, 1)),
            WalOp::Age(days_from_civil(2002, 3, 1)),
        ];
        for op in ops {
            assert_eq!(WalOp::decode(&op.encode()).unwrap(), op);
        }
        assert!(WalOp::decode(&[]).is_err());
        assert!(WalOp::decode(&[99]).is_err());
        assert!(WalOp::decode(&[WalOp::TAG_SYNC, 1, 2]).is_err());
        assert!(WalOp::decode(&[WalOp::TAG_AGE, 7]).is_err());
    }

    #[test]
    fn create_log_recover_equals_live() {
        let dir = tmpdir("clr");
        let (mo, spec) = paper_spec();
        let w = ShardRouter::create(spec.clone(), &dir, 1).unwrap();
        w.bulk_load(&mo).unwrap();
        w.sync(days_from_civil(2000, 6, 5)).unwrap();
        w.sync(days_from_civil(2000, 11, 5)).unwrap();
        assert_eq!(w.ops_durable(), 3);
        // Recover without any checkpoint beyond epoch 0: pure replay.
        let (rec, report) = ShardRouter::recover(spec, &dir).unwrap();
        assert_eq!(report.epoch, 0);
        assert_eq!(report.replayed, 3);
        assert_eq!(report.dropped_bytes, 0);
        assert_eq!(report.ops_durable, 3);
        assert_eq!(rows(&rec), rows(&w));
        assert_eq!(rec.last_sync(), w.last_sync());
        assert_eq!(report.last_sync, w.last_sync());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_rotates_and_recover_uses_it() {
        let dir = tmpdir("ckpt");
        let (mo, spec) = paper_spec();
        let w = ShardRouter::create(spec.clone(), &dir, 1).unwrap();
        w.bulk_load(&mo).unwrap();
        w.sync(days_from_civil(2000, 6, 5)).unwrap();
        assert_eq!(w.checkpoint().unwrap(), 1);
        // Post-checkpoint operations land in the fresh log.
        w.sync(days_from_civil(2000, 11, 5)).unwrap();
        let (rec, report) = ShardRouter::recover(spec, &dir).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.replayed, 1);
        assert_eq!(report.ops_durable, 3);
        assert_eq!(rows(&rec), rows(&w));
        // The superseded epoch was swept.
        let shard = dir.join(crate::layout::shard_name(0));
        assert!(!shard.join(crate::persist::ckpt_name(0)).exists());
        assert!(!shard.join(wal_name(0)).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spec_evolution_is_journaled() {
        let dir = tmpdir("evo");
        let (mo, _) = paper_mo();
        let schema = Arc::clone(mo.schema());
        let a1 = parse_action(&schema, ACTION_A1).unwrap();
        let a2 = parse_action(&schema, ACTION_A2).unwrap();
        let spec =
            DataReductionSpec::new(Arc::clone(&schema), vec![a1.clone(), a2.clone()]).unwrap();
        // Start from an *empty* spec; insert both actions through the log.
        let empty = DataReductionSpec::new(Arc::clone(&schema), vec![]).unwrap();
        let w = ShardRouter::create(empty.clone(), &dir, 1).unwrap();
        w.bulk_load(&mo).unwrap();
        let ids = w.spec_insert(vec![a1, a2]).unwrap();
        assert_eq!(ids.len(), 2);
        assert_eq!(w.view_set().views()[0].cubes().len(), 3);
        w.sync(days_from_civil(2000, 11, 5)).unwrap();
        // Recovery replays the evolution from the initial (empty) spec.
        let (rec, report) = ShardRouter::recover(empty, &dir).unwrap();
        assert_eq!(report.replayed, 3);
        assert_eq!(rec.view_set().views()[0].cubes().len(), 3);
        assert_eq!(rows(&rec), rows(&w));
        assert_eq!(
            crate::persist::spec_fingerprint(&rec.spec()),
            crate::persist::spec_fingerprint(&spec)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_dropped_on_recovery() {
        let dir = tmpdir("torn");
        let (mo, spec) = paper_spec();
        let w = ShardRouter::create(spec.clone(), &dir, 1).unwrap();
        w.bulk_load(&mo).unwrap();
        w.sync(days_from_civil(2000, 6, 5)).unwrap();
        let committed = rows(&w);
        let wal_path = WarehouseLayout::at(&dir).shard(0).wal(0);
        // A later sync's record is torn to a garbage prefix on "crash".
        w.sync(days_from_civil(2000, 11, 5)).unwrap();
        let full = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &full[..full.len() - 5]).unwrap();
        let (rec, report) = ShardRouter::recover(spec, &dir).unwrap();
        assert_eq!(report.replayed, 2);
        assert!(report.dropped_bytes > 0);
        assert_eq!(rows(&rec), committed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_batch_is_one_record_and_replays() {
        let dir = tmpdir("batch");
        let (mo, spec) = paper_spec();
        let w = ShardRouter::create(spec.clone(), &dir, 1).unwrap();
        let n = w
            .apply_batch(vec![
                WarehouseOp::BulkLoad(mo.clone()),
                WarehouseOp::Sync(days_from_civil(2000, 6, 5)),
                WarehouseOp::Sync(days_from_civil(2000, 11, 5)),
            ])
            .unwrap();
        assert_eq!(n, 3);
        assert_eq!(w.ops_durable(), 3, "every batched op counts");
        // On disk the batch is one frame.
        let wal_path = WarehouseLayout::at(&dir).shard(0).wal(0);
        let scan = sdr_storage::scan_wal(&RealFs, &wal_path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(sdr_storage::is_group(&scan.records[0]));
        let (rec, report) = ShardRouter::recover(spec, &dir).unwrap();
        assert_eq!(report.replayed, 3);
        assert_eq!(report.ops_durable, 3);
        assert_eq!(rows(&rec), rows(&w));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_batch_rolls_back_and_leaves_no_trace() {
        let dir = tmpdir("batchfail");
        let (mo, spec) = paper_spec();
        let w = ShardRouter::create(spec.clone(), &dir, 1).unwrap();
        w.bulk_load(&mo).unwrap();
        let before = rows(&w);
        let epoch = w.view_set().epoch();
        // Second op fails in memory (deleting an unknown action id).
        let err = w.apply_batch(vec![
            WarehouseOp::Sync(days_from_civil(2000, 6, 5)),
            WarehouseOp::SpecDelete(vec![ActionId(999)], days_from_civil(2000, 6, 5)),
        ]);
        assert!(err.is_err());
        assert!(!w.is_broken(), "a rolled-back batch does not wedge");
        assert_eq!(w.ops_durable(), 1, "only the bulk load is durable");
        assert_eq!(w.view_set().epoch(), epoch, "nothing was published");
        // The restored engine is what the next publish exposes.
        w.bulk_load(&mo.empty_like()).unwrap();
        assert_eq!(rows(&w), before, "engine restored to the pre-batch version");
        assert_eq!(w.last_sync(), None, "the sync was undone");
        // Recovery agrees: the batch never happened.
        let (rec, report) = ShardRouter::recover(spec, &dir).unwrap();
        assert_eq!(report.replayed, 2);
        assert_eq!(rows(&rec), before);
        // The warehouse still accepts work.
        w.sync(days_from_civil(2000, 6, 5)).unwrap();
        assert_eq!(w.ops_durable(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_existing_warehouse() {
        let dir = tmpdir("dup");
        let (_, spec) = paper_spec();
        let _w = ShardRouter::create(spec.clone(), &dir, 1).unwrap();
        assert!(ShardRouter::create(spec.clone(), &dir, 1).is_err());
        // open() takes the recovery path instead.
        assert!(ShardRouter::open(spec, &dir, 1).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
