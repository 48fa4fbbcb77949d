//! The subcube engine (Section 7): one shard's epoch-versioned cubes.
//!
//! The implementation strategy of the paper: the logical MO is stored as a
//! set of physical *subcubes*, one per distinct target granularity of the
//! (disjoint) action set, plus one bottom-granularity subcube that
//! receives all new data (Figure 6). Because at most one action is
//! responsible for each fact (NonCrossing), every fact has exactly one
//! *home* cube at any time; synchronization migrates facts along the
//! parent→child DAG as `NOW` advances.
//!
//! # Epoch-versioned snapshots
//!
//! Warehouse state is **immutable once built**: the engine holds one
//! [`Arc`] to its current version (spec, cube contents, DAG, sync
//! watermarks) and every mutator builds the successor off to the side
//! from that version. The engine has no locks of its own: it is owned by
//! [`ShardRouter`](crate::ShardRouter), whose one writer lock serializes
//! every mutator and whose one pointer swap publishes the new versions
//! of all shards together. Readers hold a [`WarehouseView`] (an `Arc`
//! clone) for as long as they like: they never block behind an in-flight
//! reduction and can never observe a half-applied one. Each version
//! carries a monotonically increasing epoch, and each subcube remembers
//! the epoch at which its facts last changed plus the day it was last
//! synchronized to — together the *version vector* that makes Section
//! 7's "query the un-synchronized state" an explicit, testable mode.

use std::collections::HashMap;
use std::sync::Arc;

use sdr_mdm::{
    CatId, DayNum, DimValue, Dimension, FactId, Granularity, Mo, Schema, TimeValue, ORIGIN_USER,
};
use sdr_reduce::{cell_for, DataReductionSpec, ReduceError, ReductionSchedule};
use sdr_spec::{ActionId, ActionSpec};

use crate::error::SubcubeError;
use crate::stats::SubcubeStats;

/// Identifies a subcube within a shard. Cube `0` is always the
/// bottom-granularity cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CubeId(pub usize);

/// One physical subcube inside a published warehouse version: a fixed
/// granularity, the actions it represents, and a frozen fact snapshot.
/// Cloning is cheap (the fact data is shared through an [`Arc`]).
#[derive(Debug, Clone)]
pub struct Subcube {
    /// The cube's fixed granularity.
    pub grain: Granularity,
    /// The actions whose target granularity this cube holds (grouping of
    /// disjoint actions on identical granularities, Section 7.1).
    pub actions: Vec<ActionId>,
    /// The cube's facts, immutable for the lifetime of this version.
    data: Arc<Mo>,
    /// Exact statistics of `data`, recomputed whenever `data` is
    /// replaced (and only then — untouched cubes share the `Arc`).
    stats: Arc<SubcubeStats>,
    /// The warehouse epoch at which `data` was last replaced.
    epoch: u64,
    /// The last day this cube's contents were synchronized to. The bottom
    /// cube's watermark lags after a bulk load: its new rows have not been
    /// migrated yet.
    synced_to: Option<DayNum>,
}

impl Subcube {
    /// The cube's facts (borrowed from the snapshot).
    pub fn data(&self) -> &Mo {
        &self.data
    }

    /// A shared handle to the cube's facts — hand this to worker threads;
    /// no lock or guard is needed to keep it alive.
    pub fn snapshot(&self) -> Arc<Mo> {
        Arc::clone(&self.data)
    }

    /// Exact statistics of this cube's facts — maintained at every
    /// publication, persisted through the checkpoint manifest, and
    /// verified against recomputation on recovery.
    pub fn stats(&self) -> &SubcubeStats {
        &self.stats
    }

    /// Replaces the cube's fact snapshot and recomputes its statistics;
    /// the only way cube data changes, so stats can never drift. A
    /// carried-forward publish (same `Arc`, e.g. an untouched cube in an
    /// aging tick) keeps the existing stats *and*
    /// replacement epoch — the facts did not change, so both are still
    /// exact and a zone-map rescan would only reproduce them.
    pub(crate) fn set_data(&mut self, data: Arc<Mo>, epoch: u64) {
        if Arc::ptr_eq(&self.data, &data) {
            sdr_obs::inc("age.stats_reused");
            return;
        }
        self.stats = Arc::new(SubcubeStats::compute(&data, epoch));
        self.data = data;
        self.epoch = epoch;
    }

    /// The warehouse epoch at which this cube's facts last changed.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The last day this cube was synchronized to (`None` = never).
    pub fn synced_to(&self) -> Option<DayNum> {
        self.synced_to
    }
}

/// Statistics from one synchronization pass (used by experiment E6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Facts that stayed in their cube.
    pub kept: usize,
    /// Facts migrated to a different cube.
    pub migrated: usize,
    /// Facts merged away by the final per-cube re-aggregation.
    pub merged: usize,
}

/// Statistics from one [`ShardRouter::age`](crate::ShardRouter::age)
/// call, accumulated over every tick it applied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgeStats {
    /// Transition-day ticks applied (each published atomically).
    pub ticks: usize,
    /// Facts re-homed across all ticks (the delta the incremental path
    /// actually touched — a from-scratch pass rescans everything).
    pub cells_delta: usize,
    /// Facts merged away by per-cube re-aggregation across all ticks.
    pub merged: usize,
    /// Cube rebuilds across all ticks (a cube rebuilt in two ticks
    /// counts twice).
    pub cubes_rebuilt: usize,
    /// Cube carry-forwards across all ticks: the cube's fact `Arc` (and
    /// version-vector entry) survived the tick untouched.
    pub cubes_skipped: usize,
}

impl AgeStats {
    fn absorb(&mut self, o: AgeStats) {
        self.ticks += o.ticks;
        self.cells_delta += o.cells_delta;
        self.merged += o.merged;
        self.cubes_rebuilt += o.cubes_rebuilt;
        self.cubes_skipped += o.cubes_skipped;
    }
}

/// One immutable warehouse version. Everything a query can observe lives
/// here, so a reader holding a version sees a single consistent state.
#[derive(Debug)]
pub(crate) struct VersionInner {
    /// Monotonically increasing publication counter.
    pub(crate) epoch: u64,
    /// The specification this version's cube layout derives from.
    pub(crate) spec: Arc<DataReductionSpec>,
    /// The subcubes (cube 0 is the bottom cube).
    pub(crate) cubes: Vec<Subcube>,
    /// Immediate parent edges of the data-flow DAG (Hasse diagram of the
    /// cube granularities; the bottom cube is the ultimate ancestor).
    pub(crate) parents: Vec<Vec<CubeId>>,
    /// The last day the cubes were synchronized to.
    pub(crate) last_sync: Option<DayNum>,
    /// Set by a bulk load; cleared by a sync pass.
    pub(crate) dirty: bool,
}

/// Builds the cube set and parent DAG for a validated specification: one
/// cube per distinct action granularity plus the bottom cube.
fn layout(spec: &DataReductionSpec, epoch: u64) -> (Vec<Subcube>, Vec<Vec<CubeId>>) {
    let schema = Arc::clone(spec.schema());
    let empty = Arc::new(Mo::new(Arc::clone(&schema)));
    // Every cube starts empty, so one stats value serves them all.
    let empty_stats = Arc::new(SubcubeStats::compute(&empty, epoch));
    let mut cubes: Vec<Subcube> = vec![Subcube {
        grain: schema.bottom_granularity(),
        actions: Vec::new(),
        data: Arc::clone(&empty),
        stats: Arc::clone(&empty_stats),
        epoch,
        synced_to: None,
    }];
    for (id, a) in spec.actions() {
        if let Some(c) = cubes.iter_mut().find(|c| c.grain == a.grain) {
            c.actions.push(*id);
        } else {
            cubes.push(Subcube {
                grain: a.grain.clone(),
                actions: vec![*id],
                data: Arc::clone(&empty),
                stats: Arc::clone(&empty_stats),
                epoch,
                synced_to: None,
            });
        }
    }
    // Hasse diagram on cube granularities: P is a parent of C when
    // grain_P < grain_C with no cube strictly between.
    let n = cubes.len();
    let mut parents = vec![Vec::new(); n];
    let lt = |a: usize, b: usize| {
        cubes[a].grain != cubes[b].grain && cubes[a].grain.leq(&cubes[b].grain, &schema)
    };
    for (c, slot) in parents.iter_mut().enumerate() {
        for p in 0..n {
            if p != c && lt(p, c) {
                let between = (0..n).any(|q| q != p && q != c && lt(p, q) && lt(q, c));
                if !between {
                    slot.push(CubeId(p));
                }
            }
        }
    }
    (cubes, parents)
}

/// A consistent, immutable read view of one shard: one published
/// version, held alive for as long as the view exists. Acquired through
/// [`ShardViewSet::views`](crate::ShardViewSet::views); cheap to clone and [`Send`], so it can
/// be handed to worker threads outright. All read-side accessors — cube
/// contents, the parent DAG, the spec, the sync watermarks — answer from
/// the same version, which is what makes multi-step query evaluation
/// torn-read-free.
#[derive(Clone)]
pub struct WarehouseView {
    pub(crate) v: Arc<VersionInner>,
}

impl WarehouseView {
    /// The epoch of the version this view pins.
    pub fn epoch(&self) -> u64 {
        self.v.epoch
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        self.v.spec.schema()
    }

    /// The specification driving the cubes of this version.
    pub fn spec(&self) -> &DataReductionSpec {
        &self.v.spec
    }

    /// The subcubes (cube 0 is the bottom cube).
    pub fn cubes(&self) -> &[Subcube] {
        &self.v.cubes
    }

    /// Immediate parents of a cube in the data-flow DAG.
    pub fn parents(&self, c: CubeId) -> &[CubeId] {
        &self.v.parents[c.0]
    }

    /// The last day the cubes were synchronized to.
    pub fn last_sync(&self) -> Option<DayNum> {
        self.v.last_sync
    }

    /// True when facts were bulk-loaded since the last sync pass — i.e.
    /// querying this view exercises the *un-synchronized* state of
    /// Section 7.3.
    pub fn is_dirty(&self) -> bool {
        self.v.dirty
    }

    /// The version vector: per cube, the epoch at which its facts last
    /// changed. Two views observed the same warehouse contents iff their
    /// version vectors are equal.
    pub fn version_vector(&self) -> Vec<u64> {
        self.v.cubes.iter().map(|c| c.epoch).collect()
    }

    /// Total number of facts across all cubes.
    pub fn len(&self) -> usize {
        self.v.cubes.iter().map(|c| c.data.len()).sum()
    }

    /// True when no cube holds facts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The home cube of a cell at time `now`: the cube of the responsible
    /// action's granularity, or the bottom cube.
    pub fn home_cube(
        &self,
        coords: &[DimValue],
        now: DayNum,
    ) -> Result<(CubeId, Vec<DimValue>), SubcubeError> {
        let c = cell_for(&self.v.spec, coords, now)?;
        let grain = Granularity(c.coords.iter().map(|v| v.cat).collect());
        let id = self
            .v
            .cubes
            .iter()
            .position(|k| k.grain == grain)
            .map(CubeId)
            // A fact whose own granularity exceeds every action's target
            // (possible after spec changes) stays where it is; fall back to
            // the best matching cube by grain, else bottom.
            .unwrap_or(CubeId(0));
        Ok((id, c.coords))
    }

    /// True when a sync pass at `now` could move any fact: either new
    /// data was bulk-loaded since the last pass, or some action's
    /// (dynamic) predicate stepped between `last_sync` and `now`. Checking
    /// costs a handful of groundings — far cheaper than a full scan — and
    /// makes frequent scheduled syncs nearly free (Section 7.2's argument
    /// that synchronization is not a bottleneck).
    pub fn needs_sync(&self, now: DayNum) -> Result<bool, SubcubeError> {
        if self.v.dirty {
            return Ok(true);
        }
        let Some(last) = self.v.last_sync else {
            return Ok(true);
        };
        if now <= last {
            return Ok(false);
        }
        let schema = self.schema();
        for (_, a) in self.v.spec.actions() {
            for conj in sdr_spec::to_dnf(&a.pred) {
                let steps =
                    sdr_spec::step_days(schema, &conj, last, now).map_err(ReduceError::Spec)?;
                // step_days always returns the endpoints; anything in
                // between means the grounded set changed.
                if steps.len() > 2 {
                    return Ok(true);
                }
                // The grounding may also change exactly at `now`.
                if steps.len() == 2
                    && sdr_spec::ground_conj(schema, &conj, last).map_err(ReduceError::Spec)?
                        != sdr_spec::ground_conj(schema, &conj, now).map_err(ReduceError::Spec)?
                {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    /// The next day strictly after `after` at which a scheduled sync pass
    /// would have work to do (the minimum step day of any action's
    /// grounding, searched to the time horizon). `None` when no further
    /// migration can ever happen — the scheduling primitive Section 8
    /// leaves as future work.
    pub fn next_sync_due(&self, after: DayNum) -> Result<Option<DayNum>, SubcubeError> {
        let schema = self.schema();
        let horizon_end = match schema.dims.iter().find_map(|d| match d {
            sdr_mdm::Dimension::Time(t) => Some(t.max_day),
            _ => None,
        }) {
            Some(d) => d,
            None => return Ok(None),
        };
        let mut best: Option<DayNum> = None;
        for (_, a) in self.v.spec.actions() {
            for conj in sdr_spec::to_dnf(&a.pred) {
                let until = best.map(|b| b - 1).unwrap_or(horizon_end);
                if until <= after {
                    continue;
                }
                if let Some(d) = sdr_spec::next_step_day(schema, &conj, after, until)
                    .map_err(ReduceError::Spec)?
                {
                    best = Some(best.map_or(d, |b: DayNum| b.min(d)));
                }
            }
        }
        Ok(best)
    }

    /// Materializes the whole warehouse version as one MO (union of all
    /// cubes).
    pub fn to_mo(&self) -> Result<Mo, SubcubeError> {
        let mut out = Mo::new(Arc::clone(self.schema()));
        for c in &self.v.cubes {
            out.absorb(&c.data).map_err(ReduceError::Model)?;
        }
        Ok(out)
    }

    /// Re-derives every cube's [`SubcubeStats`] from its facts and
    /// compares against the maintained copy — the stats-drift invariant
    /// check (`Err` names the first diverging cube). Cheap enough to run
    /// after every recovery and in the integration suite.
    pub fn verify_stats(&self) -> Result<(), SubcubeError> {
        for (i, c) in self.v.cubes.iter().enumerate() {
            let want = SubcubeStats::compute(&c.data, c.epoch);
            if want != *c.stats {
                return Err(SubcubeError::Storage(format!(
                    "cube K{i}: maintained statistics diverge from recomputation \
                     (maintained {:?}, recomputed {want:?})",
                    c.stats
                )));
            }
        }
        Ok(())
    }

    /// Storage statistics per cube (rows, raw and encoded bytes), via the
    /// `sdr-storage` layer.
    pub fn storage_stats(&self) -> Result<Vec<(CubeId, sdr_storage::TableStats)>, SubcubeError> {
        let mut out = Vec::with_capacity(self.v.cubes.len());
        for (i, c) in self.v.cubes.iter().enumerate() {
            let t = sdr_storage::FactTable::from_mo(&c.data, 1 << 16)
                .map_err(|e| SubcubeError::Storage(e.to_string()))?;
            out.push((CubeId(i), t.stats()));
        }
        Ok(out)
    }

    /// A human-readable description of the cube layout (Figure 6 / the
    /// disjoint-action example of Section 7.1), including each cube's
    /// version-vector entry.
    pub fn describe(&self) -> String {
        let schema = Arc::clone(self.schema());
        let mut s = String::new();
        for (i, c) in self.v.cubes.iter().enumerate() {
            let acts: Vec<String> = c.actions.iter().map(|a| format!("a{}", a.0)).collect();
            let parents: Vec<String> = self.v.parents[i]
                .iter()
                .map(|p| format!("K{}", p.0))
                .collect();
            s.push_str(&format!(
                "K{i} {} actions=[{}] parents=[{}] rows={} epoch={}\n",
                schema.render_granularity(&c.grain),
                acts.join(","),
                parents.join(","),
                c.data.len(),
                c.epoch
            ));
        }
        s
    }
}

/// The subcube engine of one shard: the physical MO of Section 7 as a
/// chain of immutable versions. Mutators take `&mut self` and run under
/// the router's writer lock; the router publishes the resulting
/// [`view`](SubcubeManager::view)s.
pub(crate) struct SubcubeManager {
    schema: Arc<Schema>,
    /// The latest version. Readers only ever see it through the
    /// router's published view set.
    current: Arc<VersionInner>,
    /// The reduction schedule of the current spec, built lazily on the
    /// first [`age`](SubcubeManager::age) and keyed by spec identity
    /// (the cache holds the spec `Arc`, so the key cannot be reused).
    schedule: Option<(Arc<DataReductionSpec>, Arc<ReductionSchedule>)>,
    /// Per-cube time footprints (`min_day..=max_day` over the cube's
    /// facts), keyed by `(cube index, cube epoch)` so a rebuilt cube
    /// recomputes. `None` = footprint unbounded (a `⊤` time value).
    footprints: FootprintCache,
}

/// Cached day footprints: `(cube index, cube epoch)` → `min..=max` day
/// range, `None` when some fact's time value is unbounded.
type FootprintCache = HashMap<(usize, u64), Option<(DayNum, DayNum)>>;

impl SubcubeManager {
    /// Builds the cube set for a validated specification: one cube per
    /// distinct action granularity plus the bottom cube.
    pub(crate) fn new(spec: DataReductionSpec) -> Self {
        let schema = Arc::clone(spec.schema());
        let (cubes, parents) = layout(&spec, 0);
        SubcubeManager {
            schema,
            current: Arc::new(VersionInner {
                epoch: 0,
                spec: Arc::new(spec),
                cubes,
                parents,
                last_sync: None,
                dirty: false,
            }),
            schedule: None,
            footprints: HashMap::new(),
        }
    }

    /// The schema.
    pub(crate) fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// A read view of the latest version.
    pub(crate) fn view(&self) -> WarehouseView {
        WarehouseView {
            v: Arc::clone(&self.current),
        }
    }

    /// Restores a version saved before a failed batch: the batch is then
    /// as if never issued. Footprints cached since may describe cubes of
    /// the discarded versions at reused epochs, so they go too.
    pub(crate) fn restore(&mut self, saved: WarehouseView) {
        self.current = saved.v;
        self.footprints.clear();
    }

    /// Makes `next` the latest version.
    fn advance(&mut self, next: VersionInner) {
        self.current = Arc::new(next);
    }

    /// Bulk-loads new bottom-granularity facts into the bottom cube
    /// (Section 7.2: "all new data enter into the subcube having the
    /// bottom-level granularity"). Synchronize afterwards to migrate any
    /// facts that immediately satisfy an action. Only the bottom cube's
    /// snapshot is replaced; all other cubes keep their `Arc` (and their
    /// version-vector entry).
    pub(crate) fn bulk_load(&mut self, facts: &Mo) -> Result<usize, SubcubeError> {
        if facts.schema().fact_type != self.schema.fact_type {
            return Err(SubcubeError::Reduce(ReduceError::Model(
                sdr_mdm::MdmError::SchemaMismatch("bulk load schema".into()),
            )));
        }
        let _span = sdr_obs::span("subcube.bulk_load");
        sdr_obs::attr("rows_in", facts.len());
        let cur = Arc::clone(&self.current);
        let mut bottom = (*cur.cubes[0].data).clone();
        bottom.absorb(facts).map_err(ReduceError::Model)?;
        let epoch = cur.epoch + 1;
        let mut cubes = cur.cubes.clone();
        cubes[0].set_data(Arc::new(bottom), epoch);
        self.advance(VersionInner {
            epoch,
            spec: Arc::clone(&cur.spec),
            cubes,
            parents: cur.parents.clone(),
            last_sync: cur.last_sync,
            dirty: true,
        });
        sdr_obs::attr("epoch", epoch);
        sdr_obs::add("subcube.bulk_load.facts", facts.len() as u64);
        Ok(facts.len())
    }

    /// Synchronizes all cubes to time `now` (Section 7.2): facts whose
    /// home cube changed are aggregated to the target granularity and
    /// moved; each cube is then re-aggregated once so multi-parent inflows
    /// merge (the "final aggregation" of the paper). The whole pass runs
    /// against a frozen snapshot and lands as **one** atomic publication —
    /// concurrent readers keep answering from the predecessor version and
    /// never see a half-migrated state. A cheap
    /// [`needs_sync`](WarehouseView::needs_sync) pre-check skips the scan
    /// entirely when nothing can have changed.
    pub(crate) fn sync(&mut self, now: DayNum) -> Result<SyncStats, SubcubeError> {
        let _span = sdr_obs::span("subcube.sync");
        let cur = Arc::clone(&self.current);
        let frozen = WarehouseView {
            v: Arc::clone(&cur),
        };
        if !frozen.needs_sync(now)? {
            // Nothing can move: publish only the advanced watermark.
            let kept = frozen.len();
            self.advance_watermark(&cur, now);
            sdr_obs::inc("subcube.sync.skipped");
            return Ok(SyncStats {
                kept,
                ..SyncStats::default()
            });
        }
        self.sync_pass(&cur, now)
    }

    /// Advances to a successor that only moves the sync watermark to
    /// `now`: cube contents (and their version-vector entries) are
    /// untouched.
    fn advance_watermark(&mut self, cur: &Arc<VersionInner>, now: DayNum) {
        let epoch = cur.epoch + 1;
        let mut cubes = cur.cubes.clone();
        for c in &mut cubes {
            c.synced_to = Some(now);
        }
        self.advance(VersionInner {
            epoch,
            spec: Arc::clone(&cur.spec),
            cubes,
            parents: cur.parents.clone(),
            last_sync: Some(now),
            dirty: false,
        });
    }

    /// The full scan-and-rebuild synchronization pass (no `needs_sync`
    /// pre-check): every fact of every cube is re-homed at `now` and
    /// every cube is rebuilt. `cur` must be the latest version.
    fn sync_pass(
        &mut self,
        cur: &Arc<VersionInner>,
        now: DayNum,
    ) -> Result<SyncStats, SubcubeError> {
        let frozen = WarehouseView { v: Arc::clone(cur) };
        let obs_on = sdr_obs::enabled();
        let scan_span = sdr_obs::span("subcube.sync.scan");
        let n = cur.cubes.len();
        let schema = Arc::clone(&self.schema);
        // Collect per-cube rebuilt groups.
        type Key = Vec<DimValue>;
        let mut groups: Vec<std::collections::BTreeMap<Key, (Vec<i64>, u32)>> =
            (0..n).map(|_| std::collections::BTreeMap::new()).collect();
        let mut stats = SyncStats::default();
        // Per-source-cube migration counts, published once after the scan.
        let mut migrated_from = vec![0u64; n];
        // One compiled, memoized cell resolution per fact (shared across
        // home and provenance, cached per distinct cell) — the scan used
        // to evaluate every action predicate twice per fact.
        let mut cell_memo = sdr_reduce::CellMemo::new(&cur.spec, now)?;
        for (ci, cube) in cur.cubes.iter().enumerate() {
            let mo = &cube.data;
            for f in mo.facts() {
                let coords = mo.coords(f);
                let cell = cell_memo.cell(&coords)?;
                let grain = Granularity(cell.coords.iter().map(|v| v.cat).collect());
                let home = cur.cubes.iter().position(|k| k.grain == grain).unwrap_or(0);
                let target = cell.coords;
                if home == ci && target == coords {
                    stats.kept += 1;
                } else {
                    stats.migrated += 1;
                    migrated_from[ci] += 1;
                }
                let origin = match cell.responsible {
                    Some(id) => id.0,
                    None => mo.store().origin[f.index()],
                };
                let entry = groups[home].entry(target).or_insert_with(|| {
                    (
                        schema.measures.iter().map(|m| m.agg.identity()).collect(),
                        origin,
                    )
                });
                for j in 0..schema.n_measures() {
                    entry.0[j] = schema.measures[j]
                        .agg
                        .combine(entry.0[j], mo.measure(f, sdr_mdm::MeasureId(j as u16)));
                }
                if origin != ORIGIN_USER {
                    entry.1 = origin;
                }
            }
        }
        if obs_on {
            sdr_obs::add("subcube.sync.distinct_cells", cell_memo.distinct() as u64);
            let scanned = stats.kept + stats.migrated;
            sdr_obs::attr("rows_in", scanned);
            sdr_obs::attr("memo_hits", scanned.saturating_sub(cell_memo.distinct()));
        }
        drop(scan_span);
        let rebuild_span = sdr_obs::span("subcube.sync.rebuild");
        let before = frozen.len();
        let epoch = cur.epoch + 1;
        let mut cubes = cur.cubes.clone();
        let mut after = 0usize;
        for (ci, g) in groups.into_iter().enumerate() {
            let mut mo = Mo::new(Arc::clone(&schema));
            for (coords, (ms, origin)) in g {
                mo.insert_fact_at(&coords, &ms, origin)
                    .map_err(ReduceError::Model)?;
            }
            after += mo.len();
            cubes[ci].set_data(Arc::new(mo), epoch);
            cubes[ci].synced_to = Some(now);
        }
        stats.merged = before.saturating_sub(after);
        self.advance(VersionInner {
            epoch,
            spec: Arc::clone(&cur.spec),
            cubes,
            parents: cur.parents.clone(),
            last_sync: Some(now),
            dirty: false,
        });
        drop(rebuild_span);
        if obs_on {
            sdr_obs::attr("epoch", epoch);
            sdr_obs::attr("rows_in", before);
            sdr_obs::attr("rows_out", after);
            // Same locals returned to the caller — the metrics cannot
            // disagree with `SyncStats` (asserted by the integration suite).
            sdr_obs::add("subcube.sync.kept", stats.kept as u64);
            sdr_obs::add("subcube.sync.migrated", stats.migrated as u64);
            sdr_obs::add("subcube.sync.merged", stats.merged as u64);
            for (ci, &m) in migrated_from.iter().enumerate() {
                if m > 0 {
                    sdr_obs::add(&format!("subcube.sync.migrated_from.K{ci}"), m);
                }
            }
            sdr_obs::event(
                "subcube.sync",
                format!(
                    "day={now} kept={} migrated={} merged={}",
                    stats.kept, stats.migrated, stats.merged
                ),
            );
        }
        Ok(stats)
    }

    /// Ages the warehouse incrementally to `until`: instead of one full
    /// re-reduction, the precomputed [`ReductionSchedule`] yields the
    /// transition days in `(last_sync, until]` — the only days any cell
    /// can cross an action boundary — and each is applied as one **tick**
    /// that re-evaluates only facts touched by the changed groundings.
    /// Untouched cubes are carried forward by `Arc` (their version-vector
    /// entry does not move), and each tick lands as one atomic
    /// publication journaling-compatible with [`sync`](Self::sync):
    /// after `age(until)` the warehouse state equals a from-scratch
    /// `sync(until)` (the differential suite asserts this at every tick).
    ///
    /// A dirty warehouse (un-homed bulk-loaded rows) or one never synced
    /// falls back to one full pass at `until` to establish the
    /// incremental baseline. `until` earlier than the current watermark
    /// is rejected with [`SubcubeError::AgeBeforeWatermark`] — aging is
    /// monotone.
    pub(crate) fn age(&mut self, until: DayNum) -> Result<AgeStats, SubcubeError> {
        let _span = sdr_obs::span("subcube.age");
        let mut cur = Arc::clone(&self.current);
        if let Some(last) = cur.last_sync {
            if until < last {
                return Err(SubcubeError::AgeBeforeWatermark {
                    until,
                    last_sync: last,
                });
            }
        }
        let mut stats = AgeStats::default();
        if cur.dirty || cur.last_sync.is_none() {
            // New rows (or a fresh warehouse) have no incremental
            // baseline: home everything with one full pass.
            let s = self.sync_pass(&cur, until)?;
            cur = Arc::clone(&self.current);
            stats.ticks = 1;
            stats.cells_delta = s.migrated;
            stats.merged = s.merged;
            stats.cubes_rebuilt = cur.cubes.len();
        }
        let last = cur.last_sync.expect("baseline pass published a watermark");
        if last < until {
            let sched = self.schedule_for(&cur.spec)?;
            let mut prev = last;
            for t in sched.transitions_between(last, until) {
                stats.absorb(self.age_tick(&cur, &sched, prev, t)?);
                prev = t;
                cur = Arc::clone(&self.current);
            }
            if cur.last_sync != Some(until) {
                // No transition lands exactly on `until`: advance the
                // watermark (contents at `until` equal those at the last
                // transition — the schedule proves nothing moves between).
                self.advance_watermark(&cur, until);
            }
        }
        self.prune_footprints();
        if sdr_obs::enabled() {
            sdr_obs::add("age.ticks", stats.ticks as u64);
            sdr_obs::add("age.cells_delta", stats.cells_delta as u64);
            sdr_obs::add("age.cubes_skipped", stats.cubes_skipped as u64);
            sdr_obs::attr("ticks", stats.ticks);
            sdr_obs::attr("rows_out", self.view().len());
            sdr_obs::event(
                "subcube.age",
                format!(
                    "until={until} ticks={} cells_delta={} cubes_skipped={}",
                    stats.ticks, stats.cells_delta, stats.cubes_skipped
                ),
            );
        }
        Ok(stats)
    }

    /// Applies one schedule tick `t_prev → t` (consecutive transition
    /// days, nothing moves in between): evaluates the tick's **changed
    /// disjuncts** on candidate facts, re-homes exactly the facts whose
    /// cell moved, rebuilds only the affected cubes, and publishes once.
    /// Cubes whose time footprint misses every Δ window are skipped
    /// without scanning a row.
    fn age_tick(
        &mut self,
        cur: &Arc<VersionInner>,
        sched: &ReductionSchedule,
        t_prev: DayNum,
        t: DayNum,
    ) -> Result<AgeStats, SubcubeError> {
        let _span = sdr_obs::span("subcube.age.tick");
        let obs_on = sdr_obs::enabled();
        let n = cur.cubes.len();
        let schema = Arc::clone(&self.schema);
        let mut stats = AgeStats {
            ticks: 1,
            ..AgeStats::default()
        };
        let Some(delta) = sched.delta_pred(t_prev, t) else {
            // A conservative schedule may list a day where no grounding
            // actually changed: watermark bump only.
            stats.cubes_skipped = n;
            self.advance_watermark(cur, t);
            return Ok(stats);
        };
        let windows = sched.delta_time_windows(&schema, t_prev, t);
        // Scan phase: find the facts whose home cube or target cell
        // changes across the tick. A fact on which every changed
        // disjunct evaluates false at both endpoints evaluates the whole
        // spec identically at both days and provably stays put.
        struct Move {
            src: usize,
            idx: u32,
            home: usize,
            target: Vec<DimValue>,
            origin: u32,
        }
        let mut cell_memo = sdr_reduce::CellMemo::new(&cur.spec, t)?;
        let mut moves: Vec<Move> = Vec::new();
        let mut moved: Vec<Vec<bool>> = cur
            .cubes
            .iter()
            .map(|c| vec![false; c.data.len()])
            .collect();
        let mut rebuild = vec![false; n];
        let mut scanned = 0usize;
        for (ci, cube) in cur.cubes.iter().enumerate() {
            if cube.data.is_empty() {
                continue;
            }
            if let Some(ws) = &windows {
                if let Some((lo, hi)) = self.footprint(ci, cube) {
                    if !ws.iter().any(|&(wlo, whi)| wlo <= hi && lo <= whi) {
                        continue; // disjoint from every Δ window
                    }
                }
            }
            let mo = &cube.data;
            for f in mo.facts() {
                scanned += 1;
                let coords = mo.coords(f);
                let touched = sdr_spec::eval_pred(&schema, &delta, &coords, t_prev)
                    .map_err(ReduceError::Spec)?
                    || sdr_spec::eval_pred(&schema, &delta, &coords, t)
                        .map_err(ReduceError::Spec)?;
                if !touched {
                    continue;
                }
                let cell = cell_memo.cell(&coords)?;
                let grain = Granularity(cell.coords.iter().map(|v| v.cat).collect());
                let home = cur.cubes.iter().position(|k| k.grain == grain).unwrap_or(0);
                if home == ci && cell.coords == coords {
                    continue; // already at its fixed point
                }
                let origin = match cell.responsible {
                    Some(id) => id.0,
                    None => mo.store().origin[f.index()],
                };
                moved[ci][f.index()] = true;
                rebuild[ci] = true;
                rebuild[home] = true;
                moves.push(Move {
                    src: ci,
                    idx: f.index() as u32,
                    home,
                    target: cell.coords,
                    origin,
                });
            }
        }
        stats.cells_delta = moves.len();
        if moves.is_empty() {
            stats.cubes_skipped = n;
            self.advance_watermark(cur, t);
            if obs_on {
                sdr_obs::attr("day", t);
                sdr_obs::attr("rows_in", scanned);
            }
            return Ok(stats);
        }
        // Rebuild phase: only cubes that lost or gained facts. Group
        // members fold in global `(cube, row)` order — the same order the
        // full sync pass encounters them — so merged measures and
        // provenance come out identical to a from-scratch reduction.
        let epoch = cur.epoch + 1;
        let mut cubes = cur.cubes.clone();
        let before: usize = cur.cubes.iter().map(|c| c.data.len()).sum();
        let mut after = 0usize;
        for ci in 0..n {
            if !rebuild[ci] {
                // Carry-forward: same fact `Arc`, so `set_data` keeps the
                // stats and epoch untouched (and counts the reuse).
                let same = Arc::clone(&cubes[ci].data);
                cubes[ci].set_data(same, epoch);
                cubes[ci].synced_to = Some(t);
                after += cubes[ci].data.len();
                stats.cubes_skipped += 1;
                continue;
            }
            stats.cubes_rebuilt += 1;
            // Incoming groups: target cell → contributing (src, row, origin).
            let mut incoming: std::collections::BTreeMap<Vec<DimValue>, Vec<(usize, u32, u32)>> =
                std::collections::BTreeMap::new();
            for m in moves.iter().filter(|m| m.home == ci) {
                incoming
                    .entry(m.target.clone())
                    .or_default()
                    .push((m.src, m.idx, m.origin));
            }
            let mo = &cur.cubes[ci].data;
            let mut keep: Vec<u32> = Vec::new();
            for f in mo.facts() {
                if moved[ci][f.index()] {
                    continue; // re-homed elsewhere
                }
                let coords = mo.coords(f);
                if let Some(members) = incoming.get_mut(&coords) {
                    // An arriving group merges into this existing row:
                    // fold it in as a member instead of keeping it.
                    members.push((ci, f.index() as u32, mo.store().origin[f.index()]));
                } else {
                    keep.push(f.index() as u32);
                }
            }
            let mut rebuilt = mo.gather(&keep);
            for (target, mut members) in incoming {
                members.sort_unstable();
                let mut acc: Vec<i64> = schema.measures.iter().map(|m| m.agg.identity()).collect();
                let mut origin = members[0].2;
                for &(src, idx, o) in &members {
                    let smo = &cur.cubes[src].data;
                    for (j, a) in acc.iter_mut().enumerate() {
                        *a = schema.measures[j]
                            .agg
                            .combine(*a, smo.measure(FactId(idx), sdr_mdm::MeasureId(j as u16)));
                    }
                    if o != ORIGIN_USER {
                        origin = o;
                    }
                }
                rebuilt
                    .insert_fact_at(&target, &acc, origin)
                    .map_err(ReduceError::Model)?;
            }
            after += rebuilt.len();
            cubes[ci].set_data(Arc::new(rebuilt), epoch);
            cubes[ci].synced_to = Some(t);
        }
        stats.merged = before.saturating_sub(after);
        self.advance(VersionInner {
            epoch,
            spec: Arc::clone(&cur.spec),
            cubes,
            parents: cur.parents.clone(),
            last_sync: Some(t),
            dirty: false,
        });
        if obs_on {
            sdr_obs::attr("day", t);
            sdr_obs::attr("epoch", epoch);
            sdr_obs::attr("rows_in", scanned);
            sdr_obs::attr("rows_out", after);
            sdr_obs::attr("cells_delta", stats.cells_delta);
            sdr_obs::attr("cubes_rebuilt", stats.cubes_rebuilt);
            sdr_obs::attr("cubes_skipped", stats.cubes_skipped);
            sdr_obs::event(
                "subcube.age.tick",
                format!(
                    "day={t} cells_delta={} rebuilt={} skipped={}",
                    stats.cells_delta, stats.cubes_rebuilt, stats.cubes_skipped
                ),
            );
        }
        Ok(stats)
    }

    /// The cached [`ReductionSchedule`] of `spec`, rebuilt when the spec
    /// instance changes (evolution publishes a new `Arc`).
    pub(crate) fn schedule_for(
        &mut self,
        spec: &Arc<DataReductionSpec>,
    ) -> Result<Arc<ReductionSchedule>, SubcubeError> {
        if let Some((k, s)) = &self.schedule {
            if Arc::ptr_eq(k, spec) {
                return Ok(Arc::clone(s));
            }
        }
        let _span = sdr_obs::span("subcube.age.schedule");
        let sched = Arc::new(ReductionSchedule::build(spec)?);
        sdr_obs::attr("transition_days", sched.transition_days().len());
        self.schedule = Some((Arc::clone(spec), Arc::clone(&sched)));
        Ok(sched)
    }

    /// The inclusive day footprint of cube `ci`'s facts, cached by
    /// `(index, epoch)`. `None` = unbounded (no time dimension, or a `⊤`
    /// time value) — the cube can never be pruned.
    fn footprint(&mut self, ci: usize, cube: &Subcube) -> Option<(DayNum, DayNum)> {
        let key = (ci, cube.epoch());
        if let Some(fp) = self.footprints.get(&key) {
            return *fp;
        }
        let ti = self.schema.dims.iter().position(Dimension::is_time);
        let fp = ti.and_then(|ti| {
            let store = cube.data().store();
            let mut lo = DayNum::MAX;
            let mut hi = DayNum::MIN;
            for row in 0..cube.data().len() {
                let tv =
                    TimeValue::from_code(CatId(store.cats[ti][row]), store.codes[ti][row]).ok()?;
                let (s, e) = (tv.start_day()?, tv.end_day()?);
                lo = lo.min(s);
                hi = hi.max(e);
            }
            Some((lo, hi))
        });
        self.footprints.insert(key, fp);
        fp
    }

    /// Drops footprint-cache entries for cube versions no longer current.
    fn prune_footprints(&mut self) {
        let cur = &self.current;
        self.footprints
            .retain(|&(ci, epoch), _| cur.cubes.get(ci).is_some_and(|c| c.epoch() == epoch));
    }

    /// Evolves the specification by inserting `new` actions
    /// ([`DataReductionSpec::insert`], Definition 3) and rebuilds the
    /// cube layout for the extended action set. All facts are staged in
    /// the bottom cube and redistributed by the next
    /// [`sync`](SubcubeManager::sync) pass, exactly as after a bulk load.
    /// On rejection (NonCrossing/Growing violation) the engine is
    /// unchanged.
    pub(crate) fn evolve_insert(
        &mut self,
        new: Vec<ActionSpec>,
    ) -> Result<Vec<ActionId>, SubcubeError> {
        let cur = Arc::clone(&self.current);
        let mut spec = (*cur.spec).clone();
        let ids = spec.insert(new)?;
        self.rebuild_with_spec(&cur, spec)?;
        sdr_obs::inc("subcube.evolve.insert");
        Ok(ids)
    }

    /// Evolves the specification by deleting the given actions
    /// ([`DataReductionSpec::delete`], Definition 4) — checked against the
    /// warehouse's current facts at time `now` — and rebuilds the cube
    /// layout. On rejection the engine is unchanged.
    pub(crate) fn evolve_delete(
        &mut self,
        ids: &[ActionId],
        now: DayNum,
    ) -> Result<(), SubcubeError> {
        let cur = Arc::clone(&self.current);
        let mo = self.view().to_mo()?;
        let mut spec = (*cur.spec).clone();
        spec.delete(ids, &mo, now)?;
        self.rebuild_with_spec(&cur, spec)?;
        sdr_obs::inc("subcube.evolve.delete");
        Ok(())
    }

    /// Advances to a successor version with a new specification: the
    /// cube DAG is re-derived and every existing fact is staged in the
    /// bottom cube (the one cube allowed to hold foreign-granularity
    /// rows; a sync pass homes them).
    fn rebuild_with_spec(
        &mut self,
        cur: &Arc<VersionInner>,
        spec: DataReductionSpec,
    ) -> Result<(), SubcubeError> {
        let all = WarehouseView { v: Arc::clone(cur) }.to_mo()?;
        let epoch = cur.epoch + 1;
        let (mut cubes, parents) = layout(&spec, epoch);
        cubes[0].set_data(Arc::new(all), epoch);
        self.advance(VersionInner {
            epoch,
            spec: Arc::new(spec),
            cubes,
            parents,
            last_sync: cur.last_sync,
            dirty: true,
        });
        Ok(())
    }

    /// Installs recovered cube contents wholesale (checkpoint loading):
    /// one version carrying every cube plus the recovered `last_sync`.
    pub(crate) fn install_checkpoint(&mut self, mos: Vec<Mo>, last_sync: Option<DayNum>) {
        let cur = Arc::clone(&self.current);
        let epoch = cur.epoch + 1;
        let mut cubes = cur.cubes.clone();
        debug_assert_eq!(mos.len(), cubes.len());
        for (c, mo) in cubes.iter_mut().zip(mos) {
            c.set_data(Arc::new(mo), epoch);
            c.synced_to = last_sync;
        }
        self.advance(VersionInner {
            epoch,
            spec: Arc::clone(&cur.spec),
            cubes,
            parents: cur.parents.clone(),
            last_sync,
            dirty: false,
        });
    }
}
