//! Querying a set of subcubes (Section 7.3).
//!
//! A query is evaluated on every subcube *separately and in parallel*,
//! producing up to `m` sub-results that are combined by a final
//! aggregation — exact because all default aggregate functions are
//! distributive (Section 3). Two states are supported:
//!
//! * **synchronized** — each cube holds exactly its own facts; the query
//!   runs per cube and the sub-results are unioned and re-aggregated
//!   (Figure 8);
//! * **un-synchronized** — facts may still sit in ancestor cubes; each
//!   sub-query therefore scans the cube *and its ancestors*, keeping only
//!   the rows whose *home* is the queried cube, aggregated to the cube's
//!   granularity first (the `α[G_i]σ[P_i](K_i ∪ parents)` strategy of
//!   Figure 9). This makes query answers independent of the sync state,
//!   which the test suite verifies.
//!
//! Evaluation runs against a [`WarehouseView`] — one pinned version of
//! the warehouse — so a multi-cube fan-out can never mix cube states from
//! before and after a concurrent sync. Worker threads receive `Arc<Mo>`
//! snapshots outright; no lock is held anywhere during evaluation.

use std::sync::Arc;

use sdr_mdm::{DayNum, Mo};
use sdr_plan::{CubeSummary, QueryPlan, RegionOracle};
use sdr_query::{aggregate_ids, select_snapshot, AggApproach, SelectMode};
use sdr_spec::Pexp;

use crate::error::SubcubeError;
use crate::manager::{CubeId, Subcube, SubcubeManager, WarehouseView};

/// A query against the subcube warehouse: optional selection followed by
/// aggregate formation (the operators of Section 6).
#[derive(Debug, Clone)]
pub struct CubeQuery {
    /// Selection predicate (`None` = all facts).
    pub pred: Option<Pexp>,
    /// Selection mode for varying granularities.
    pub mode: SelectMode,
    /// Aggregation target, one category per dimension.
    pub levels: Vec<sdr_mdm::CatId>,
    /// Aggregation approach for varying granularities.
    pub approach: AggApproach,
}

/// The planner's view of one cube: exact maintained statistics plus the
/// cube's granularity.
fn summarize(c: &Subcube) -> CubeSummary {
    let s = c.stats();
    CubeSummary {
        rows: s.rows,
        hulls: s.hulls.clone(),
        origins: s.origins.clone(),
        grain: c.grain.0.clone(),
    }
}

/// `SDR_PLAN_VERIFY=1` — debug mode: planner-skipped cubes are evaluated
/// anyway and the process panics if one contributes a row (the
/// differential suite runs the whole test matrix under this).
fn plan_verify() -> bool {
    std::env::var("SDR_PLAN_VERIFY")
        .map(|v| v == "1")
        .unwrap_or(false)
}

impl WarehouseView {
    /// Plans `q` against this view's cubes: a scan/skip verdict per cube
    /// from their exact statistics (and `oracle`'s proved regions, when
    /// given), plus a cheapest-first scan order. Pruning is sound: the
    /// planned evaluation returns exactly the naive full fan-out's
    /// answer.
    pub fn plan(&self, q: &CubeQuery, now: DayNum, oracle: Option<&RegionOracle>) -> QueryPlan {
        let summaries: Vec<CubeSummary> = self.cubes().iter().map(summarize).collect();
        sdr_plan::plan(
            self.schema(),
            q.pred.as_ref(),
            q.mode,
            now,
            &summaries,
            oracle,
        )
    }

    /// Evaluates `q` assuming synchronized cubes, with one worker per cube
    /// (scoped threads) when `parallel`. Cubes the planner
    /// proves irrelevant (empty, hull-disjoint) are skipped; use
    /// [`query_planned`](WarehouseView::query_planned) to also supply a
    /// region oracle, or [`query_naive`](WarehouseView::query_naive) for
    /// the unplanned full fan-out.
    pub fn query(&self, q: &CubeQuery, now: DayNum, parallel: bool) -> Result<Mo, SubcubeError> {
        self.query_planned(q, now, parallel, None)
    }

    /// [`query`](WarehouseView::query) with an optional region oracle
    /// (the router builds one per shard from the cached reduction
    /// schedule, see [`ShardViewSet::oracle`](crate::ShardViewSet::oracle))
    /// enabling proved-region pruning on origin-pure cubes.
    pub fn query_planned(
        &self,
        q: &CubeQuery,
        now: DayNum,
        parallel: bool,
        oracle: Option<&RegionOracle>,
    ) -> Result<Mo, SubcubeError> {
        let plan = self.plan(q, now, oracle);
        let subresults = self.eval_per_cube(q, now, parallel, false, Some(&plan))?;
        self.combine(q, subresults)
    }

    /// The unplanned full fan-out over every cube — what
    /// [`query`](WarehouseView::query) degenerates to when nothing can be
    /// pruned. Kept as the differential baseline: planned and naive
    /// answers must be identical.
    pub fn query_naive(
        &self,
        q: &CubeQuery,
        now: DayNum,
        parallel: bool,
    ) -> Result<Mo, SubcubeError> {
        let subresults = self.eval_per_cube(q, now, parallel, false, None)?;
        self.combine(q, subresults)
    }

    /// Evaluates `q` without assuming synchronization: every sub-query
    /// additionally scans ancestor cubes for not-yet-migrated facts and
    /// filters rows to the queried cube's responsibility. Never planned —
    /// a cube's statistics say nothing about rows still sitting in its
    /// ancestors, so pruning here would be unsound.
    pub fn query_unsync(
        &self,
        q: &CubeQuery,
        now: DayNum,
        parallel: bool,
    ) -> Result<Mo, SubcubeError> {
        let subresults = self.eval_per_cube(q, now, parallel, true, None)?;
        self.combine(q, subresults)
    }

    fn eval_per_cube(
        &self,
        q: &CubeQuery,
        now: DayNum,
        parallel: bool,
        unsync: bool,
        plan: Option<&QueryPlan>,
    ) -> Result<Vec<Mo>, SubcubeError> {
        let _span = sdr_obs::span("subcube.query");
        sdr_obs::attr("epoch", self.epoch());
        // Sub-query spans open under this context — on this thread for a
        // sequential evaluation, handed off explicitly to the fan-out
        // workers otherwise — so both trees nest identically.
        let ctx = sdr_obs::ctx();
        let n = self.cubes().len();
        let run = |input: &Arc<Mo>| -> Result<Mo, SubcubeError> {
            // `select_snapshot` shares the cube's `Arc` when nothing is
            // filtered (in particular for `pred: None`), so aggregation
            // runs directly on the cube's storage with no deep copy.
            let selected = select_snapshot(input, q.pred.as_ref(), now, q.mode)?;
            Ok(aggregate_ids(&selected, &q.levels, q.approach)?)
        };
        let verify = plan.is_some() && plan_verify();
        let eval_one = |i: usize| -> Result<Mo, SubcubeError> {
            // Fan-out latency: one sample per sub-query, so the span's
            // p50/p99 spread exposes cube-size skew across workers.
            let sub = sdr_obs::span_in("subcube.query.subquery", &ctx);
            let cube = &self.cubes()[i];
            let r = if unsync {
                let input = Arc::new(self.cube_view_unsync(CubeId(i), now)?);
                run(&input)
            } else {
                // Evaluate on the cube's shared snapshot — no guard, no
                // clone; the `Arc` keeps the version alive in the worker.
                run(&cube.snapshot())
            };
            if sub.is_recording() {
                sdr_obs::attr("subcube", format_args!("K{i}"));
                sdr_obs::attr("epoch", cube.epoch());
                sdr_obs::attr("rows_in", cube.data().len());
                if let Ok(mo) = &r {
                    sdr_obs::attr("rows_out", mo.len());
                }
            }
            drop(sub);
            r
        };
        // Planner-skipped cubes contribute an empty sub-result without
        // being evaluated. Under `SDR_PLAN_VERIFY=1` they are evaluated
        // anyway — a skipped cube producing a row is a planner soundness
        // bug and aborts loudly.
        let skip_one = |i: usize| -> Result<Mo, SubcubeError> {
            let reason = plan
                .and_then(|p| p.skip_reason(i))
                .expect("skip_one only called for skipped cubes");
            let sub = sdr_obs::span_in("subcube.query.subquery", &ctx);
            if sub.is_recording() {
                let cube = &self.cubes()[i];
                sdr_obs::attr("subcube", format_args!("K{i}"));
                sdr_obs::attr("epoch", cube.epoch());
                sdr_obs::attr("rows_in", cube.data().len());
                sdr_obs::attr("rows_out", 0u64);
                sdr_obs::attr("skipped", reason.label());
            }
            drop(sub);
            if verify {
                // Evaluate the skipped cube anyway (span-free, so the
                // fan-out telemetry matches the plan) and abort if it
                // contributes anything.
                let mo = run(&self.cubes()[i].snapshot())?;
                assert_eq!(
                    mo.len(),
                    0,
                    "planner skipped K{i} ({}) but it contributes {} rows",
                    reason.label(),
                    mo.len()
                );
            }
            Ok(Mo::new(Arc::clone(self.schema())))
        };
        let dispatch = |i: usize| -> Result<Mo, SubcubeError> {
            match plan {
                Some(p) if !p.scans(i) => skip_one(i),
                _ => eval_one(i),
            }
        };
        if !parallel || n <= 1 {
            // Sequential evaluation follows the plan's cheapest-first
            // order (skips are free; results land in cube order).
            let mut results: Vec<Option<Mo>> = (0..n).map(|_| None).collect();
            match plan {
                Some(p) => {
                    for &i in &p.order {
                        results[i] = Some(eval_one(i)?);
                    }
                    for (i, slot) in results.iter_mut().enumerate() {
                        if slot.is_none() {
                            *slot = Some(skip_one(i)?);
                        }
                    }
                }
                None => {
                    for (i, slot) in results.iter_mut().enumerate() {
                        *slot = Some(eval_one(i)?);
                    }
                }
            }
            return Ok(results
                .into_iter()
                .map(|r| r.expect("all cubes dispatched"))
                .collect());
        }
        sdr_obs::add("subcube.query.fanout", n as u64);
        // One worker per cube, joined in cube order.
        let dispatch = &dispatch;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n).map(|i| s.spawn(move || dispatch(i))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("subcube query worker panicked"))
                .collect()
        })
    }

    /// The consistent content of one cube in the un-synchronized state:
    /// rows of the cube and all its ancestors whose *home* is this cube,
    /// aggregated to the cube's granularity (`α[G_i]σ[P_i](K_i ∪ parents)`,
    /// Section 7.3). Scanning *all* ancestors generalizes the paper's
    /// one-generation staleness assumption.
    fn cube_view_unsync(&self, id: CubeId, now: DayNum) -> Result<Mo, SubcubeError> {
        // Ancestor closure of `id` (including itself).
        let mut anc = vec![false; self.cubes().len()];
        let mut stack = vec![id];
        while let Some(c) = stack.pop() {
            if std::mem::replace(&mut anc[c.0], true) {
                continue;
            }
            stack.extend(self.parents(c).iter().copied());
        }
        let schema = Arc::clone(self.schema());
        let mut view = Mo::new(Arc::clone(&schema));
        for (ci, cube) in self.cubes().iter().enumerate() {
            if !anc[ci] {
                continue;
            }
            let mo = cube.data();
            for f in mo.facts() {
                let coords = mo.coords(f);
                let (home, target) = self.home_cube(&coords, now)?;
                if home == id {
                    view.insert_fact_at(&target, &mo.measures_of(f), mo.store().origin[f.index()])
                        .map_err(sdr_reduce::ReduceError::Model)?;
                }
            }
        }
        // Aggregate duplicates created by migration-pending rows (the
        // final per-cube aggregation of Section 7.2 applied on the fly).
        let grain = &self.cubes()[id.0].grain;
        Ok(aggregate_ids(&view, &grain.0, AggApproach::Availability)?)
    }

    /// Unions sub-results and applies the final aggregation step (exact
    /// for distributive aggregates).
    fn combine(&self, q: &CubeQuery, subresults: Vec<Mo>) -> Result<Mo, SubcubeError> {
        let mut union = Mo::new(Arc::clone(self.schema()));
        for s in &subresults {
            union.absorb(s).map_err(sdr_reduce::ReduceError::Model)?;
        }
        Ok(aggregate_ids(&union, &q.levels, q.approach)?)
    }
}

impl SubcubeManager {
    /// The region oracle for `view`, built from the cached
    /// [`sdr_reduce::ReductionSchedule`] of its spec. `None` when the
    /// view was never synchronized (no cube content is action-placed yet)
    /// or the schedule cannot be built — planning then falls back to
    /// statistics-only pruning, never to an error.
    pub(crate) fn region_oracle(&mut self, view: &WarehouseView) -> Option<RegionOracle> {
        let last_sync = view.last_sync()?;
        let schedule = self.schedule_for(&view.v.spec).ok()?;
        Some(RegionOracle::build(&schedule, last_sync))
    }
}
