//! Crash-recovery test matrix for the durable warehouse (a one-shard
//! `ShardRouter`; its shard lives under `shard-000/`).
//!
//! The contract under test (see `crates/subcube/src/durable.rs`): an
//! operation that returned `Ok` survives any later crash; an operation
//! that errored or never returned leaves the recovered warehouse as if
//! it had not been issued. The matrix drives every fault mode of
//! [`FailpointFs`] at *every* mutating filesystem operation of a fixed
//! workload; the property test does the same over random workloads and
//! crash points. Both re-apply the unacknowledged suffix after recovery
//! and require the result to be indistinguishable — facts, per-cube
//! granularities, `last_sync`, and the `SyncStats` of a probe sync —
//! from a run that never crashed.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use specdr::mdm::calendar::days_from_civil;
use specdr::mdm::{time_cat as tc, DimValue, Mo, Schema, TimeValue};
use specdr::reduce::{DataReductionSpec, ReductionSchedule};
use specdr::spec::{parse_action, ActionId, ActionSpec};
use specdr::storage::fs::{FailpointFs, FaultMode, Fs, RealFs};
use specdr::subcube::{read_manifest, ShardRouter, SubcubeStats, SyncStats, WarehouseOp};
use specdr::workload::{paper_mo, ACTION_A1, ACTION_A2};

/// One logical warehouse operation of a test workload.
#[derive(Clone)]
enum Op {
    Load(Mo),
    Sync(i32),
    /// Incremental aging to a day (ISSUE 7): one WAL record per call,
    /// however many transition ticks the call applies.
    Age(i32),
    SpecInsert(Vec<ActionSpec>),
    SpecDelete(Vec<ActionId>, i32),
    /// Checkpoint: durable but not write-ahead logged (not counted by
    /// `ops_durable`).
    Ckpt,
}

impl Op {
    fn is_logged(&self) -> bool {
        !matches!(self, Op::Ckpt)
    }

    fn apply(&self, w: &ShardRouter) -> Result<(), specdr::subcube::SubcubeError> {
        match self {
            Op::Load(mo) => w.bulk_load(mo).map(|_| ()),
            Op::Sync(t) => w.sync(*t).map(|_| ()),
            Op::Age(t) => w.age(*t).map(|_| ()),
            Op::SpecInsert(a) => w.spec_insert(a.clone()).map(|_| ()),
            Op::SpecDelete(ids, t) => w.spec_delete(ids, *t),
            Op::Ckpt => w.checkpoint().map(|_| ()),
        }
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "sdr-durability-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// An MO holding one bottom-granularity click.
fn single_fact(schema: &Arc<Schema>, day: i32, url_idx: usize, measures: [i64; 4]) -> Mo {
    const URLS: [&str; 4] = [
        "http://www.cnn.com/",
        "http://www.cnn.com/health",
        "http://www.cc.gatech.edu/",
        "http://www.amazon.com/exec/...",
    ];
    let specdr::mdm::Dimension::Enum(e) = schema.dim(specdr::mdm::DimId(1)) else {
        unreachable!()
    };
    let urlcat = schema
        .dim(specdr::mdm::DimId(1))
        .graph()
        .by_name("url")
        .unwrap();
    let u = e.value(urlcat, URLS[url_idx % URLS.len()]).unwrap();
    let d = DimValue::new(tc::DAY, TimeValue::Day(day).code());
    let mut mo = Mo::new(Arc::clone(schema));
    mo.insert_fact(&[d, u], &measures).unwrap();
    mo
}

/// The never-crashed run: the same logical ops on an in-memory
/// warehouse.
fn reference(spec: &DataReductionSpec, ops: &[Op]) -> ShardRouter {
    let m = ShardRouter::in_memory(spec.clone());
    for op in ops {
        op.apply(&m).unwrap();
    }
    m
}

/// True once `dir` holds an established warehouse (`SHARDS` is written
/// last by `create`).
fn established(dir: &Path) -> bool {
    dir.join("SHARDS").exists()
}

/// Recovers `dir` on the real filesystem.
fn recover(spec: &DataReductionSpec, dir: &Path) -> ShardRouter {
    ShardRouter::recover(spec.clone(), dir).unwrap().0
}

/// Warehouse state rendered for equality: sorted whole-MO facts, per-cube
/// granularity + sorted facts, and `last_sync`.
fn state(m: &ShardRouter) -> (Vec<String>, Vec<String>, Option<i32>) {
    let set = m.view_set();
    let whole = set.to_mo().unwrap();
    let mut facts: Vec<String> = whole.facts().map(|f| whole.render_fact(f)).collect();
    facts.sort();
    let mut cubes = Vec::new();
    let v = &set.views()[0];
    for (i, c) in v.cubes().iter().enumerate() {
        let data = c.data();
        let mut rows: Vec<String> = data.facts().map(|f| data.render_fact(f)).collect();
        rows.sort();
        cubes.push(format!("K{i} {:?}: {}", c.grain, rows.join(" | ")));
    }
    (facts, cubes, m.last_sync())
}

/// Runs `create` + the workload through `fs`, stopping at the first
/// error. Returns how many *logged* ops were acknowledged (`Ok`).
fn run_workload(
    spec: &DataReductionSpec,
    dir: &std::path::Path,
    fs: Arc<dyn Fs>,
    ops: &[Op],
) -> u64 {
    let Ok(w) = ShardRouter::create_with_fs(spec.clone(), dir, 1, fs) else {
        return 0;
    };
    let mut acked = 0;
    for op in ops {
        if op.apply(&w).is_err() {
            break;
        }
        if op.is_logged() {
            acked += 1;
        }
    }
    acked
}

/// Recovers `dir`, re-applies the unacknowledged logical suffix, and
/// checks the result against the never-crashed reference. Returns the
/// recovered state tuple for determinism digests.
fn recover_and_verify(
    spec: &DataReductionSpec,
    dir: &std::path::Path,
    ops: &[Op],
    acked: u64,
    ctx: &str,
) -> (Vec<String>, Vec<String>, Option<i32>) {
    if !established(dir) {
        // The warehouse was never established — only possible when not a
        // single operation was acknowledged.
        assert_eq!(
            acked, 0,
            "{ctx}: SHARDS missing but {acked} ops were acknowledged"
        );
        let m = reference(spec, ops);
        return state(&m);
    }
    let (w, report) = ShardRouter::recover(spec.clone(), dir)
        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    // Durability accounting: everything acknowledged is durable; at most
    // one in-flight operation (applied + logged, error returned after the
    // log append survived — FaultMode::CrashAfter) may exceed it.
    assert!(
        report.ops_durable >= acked && report.ops_durable <= acked + 1,
        "{ctx}: acked={acked} but ops_durable={}",
        report.ops_durable
    );
    // Re-drive the workload from the first non-durable logical op.
    let mut skipped = 0;
    for op in ops {
        if op.is_logged() && skipped < report.ops_durable {
            skipped += 1;
            continue;
        }
        if !op.is_logged() {
            continue;
        }
        op.apply(&w)
            .unwrap_or_else(|e| panic!("{ctx}: re-applying suffix failed: {e}"));
    }
    let got = state(&w);
    let want = state(&reference(spec, ops));
    assert_eq!(
        got, want,
        "{ctx}: recovered+resumed state diverges from never-crashed run"
    );
    // ISSUE 6: the per-subcube statistics that came through checkpoint +
    // WAL replay (+ the resumed suffix) must be bit-identical to a
    // from-scratch recomputation over the recovered facts — under every
    // fault schedule of the matrix.
    let set = w.view_set();
    for (i, c) in set.views()[0].cubes().iter().enumerate() {
        assert_eq!(
            *c.stats(),
            SubcubeStats::compute(c.data(), c.epoch()),
            "{ctx}: cube K{i} statistics diverge from recomputation"
        );
    }
    got
}

/// A third action, disjoint from the paper's `.com`-only a1/a2: age
/// `.edu` facts past a year to `(Time.year, URL.domain_grp)`.
const ACTION_A3: &str = "p(a[Time.year, URL.domain_grp] o[URL.domain_grp = .edu AND \
                         Time.year <= NOW - 1 years](O))";

/// The paper-data workload exercising every WAL op kind: load, sync,
/// spec insert, checkpoint, incremental load, spec delete, final sync.
fn paper_workload() -> (DataReductionSpec, Vec<Op>) {
    let (mo, _) = paper_mo();
    let schema = Arc::clone(mo.schema());
    let a1 = parse_action(&schema, ACTION_A1).unwrap();
    let a2 = parse_action(&schema, ACTION_A2).unwrap();
    let a3 = parse_action(&schema, ACTION_A3).unwrap();
    let spec = DataReductionSpec::new(Arc::clone(&schema), vec![a1, a2]).unwrap();
    let extra = single_fact(&schema, days_from_civil(2000, 5, 7), 0, [1, 100, 2, 9000]);
    let ops = vec![
        Op::Load(mo),
        Op::Sync(days_from_civil(2000, 6, 5)),
        Op::SpecInsert(vec![a3]),
        Op::Ckpt,
        Op::Load(extra),
        Op::Sync(days_from_civil(2000, 11, 5)),
        // The sync homes every a3-covered fact at year level, so the
        // delete's responsibility check (Definition 4) passes.
        Op::Sync(days_from_civil(2001, 2, 5)),
        Op::SpecDelete(vec![ActionId(2)], days_from_civil(2001, 2, 5)),
        Op::Sync(days_from_civil(2001, 6, 5)),
    ];
    (spec, ops)
}

/// The workload must be clean when nothing is injected (otherwise the
/// matrix would conflate spec rejections with injected faults).
#[test]
fn paper_workload_is_clean() {
    let (spec, ops) = paper_workload();
    let m = reference(&spec, &ops);
    assert!(!m.is_empty());
    // And the durable run acknowledges every logged op.
    let dir = tmpdir("clean");
    let logged = ops.iter().filter(|o| o.is_logged()).count() as u64;
    let acked = run_workload(&spec, &dir, RealFs::shared(), &ops);
    assert_eq!(acked, logged);
    assert_eq!(state(&recover(&spec, &dir)), state(&reference(&spec, &ops)));
    std::fs::remove_dir_all(&dir).ok();
}

/// ISSUE 6: persisted `SubcubeStats` round-trip the checkpoint manifest
/// bit-identically; `recover` re-verifies every persisted block against
/// recomputation and reports how many it checked.
#[test]
fn recovered_stats_match_recomputation_and_are_persisted() {
    let (spec, ops) = paper_workload();
    let dir = tmpdir("stats-roundtrip");
    let logged = ops.iter().filter(|o| o.is_logged()).count() as u64;
    let acked = run_workload(&spec, &dir, RealFs::shared(), &ops);
    assert_eq!(acked, logged);
    let manifest = read_manifest(dir.join("shard-000")).unwrap();
    assert!(
        !manifest.cube_stats.is_empty(),
        "format-2 manifest persists per-cube statistics"
    );
    let (w, report) = ShardRouter::recover(spec.clone(), &dir).unwrap();
    assert_eq!(
        report.stats_verified,
        manifest.cube_stats.len(),
        "recover verifies every persisted stats block"
    );
    let set = w.view_set();
    for (i, c) in set.views()[0].cubes().iter().enumerate() {
        assert_eq!(
            *c.stats(),
            SubcubeStats::compute(c.data(), c.epoch()),
            "cube K{i} statistics diverge after WAL replay"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every fault mode × every mutating filesystem operation of the
/// workload: recovery + resume must always converge to the reference.
#[test]
fn crash_matrix_over_every_fs_op() {
    let (spec, ops) = paper_workload();
    // Count the mutating fs ops of a clean run.
    let dir = tmpdir("count");
    let counting = FailpointFs::counting(RealFs::shared());
    run_workload(&spec, &dir, counting.clone(), &ops);
    let total = counting.ops();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        total > 10,
        "workload too small to be interesting: {total} fs ops"
    );

    for mode in FaultMode::ALL {
        for k in 0..total {
            let ctx = format!("mode={mode:?} fail_op={k}");
            let dir = tmpdir("matrix");
            let shim = FailpointFs::new(RealFs::shared(), 0xC0FFEE ^ k, k, mode);
            let acked = run_workload(&spec, &dir, shim.clone(), &ops);
            assert!(shim.crashed(), "{ctx}: fault never fired");
            recover_and_verify(&spec, &dir, &ops, acked, &ctx);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// The continuous-aging workload (ISSUE 7): baseline sync, three
/// single-tick `age` calls at the spec's first scheduled transition
/// days, a checkpoint, a mid-stream load (the next age rebaselines the
/// dirtied warehouse), and one multi-tick jump to the end of the window.
fn aging_workload() -> (DataReductionSpec, Vec<Op>) {
    let (mo, _) = paper_mo();
    let schema = Arc::clone(mo.schema());
    let a1 = parse_action(&schema, ACTION_A1).unwrap();
    let a2 = parse_action(&schema, ACTION_A2).unwrap();
    let spec = DataReductionSpec::new(Arc::clone(&schema), vec![a1, a2]).unwrap();
    let baseline = days_from_civil(2000, 2, 5);
    let sched = ReductionSchedule::build(&spec).unwrap();
    let ticks = sched.transitions_between(baseline, days_from_civil(2001, 6, 5));
    assert!(ticks.len() >= 5, "degenerate aging schedule: {ticks:?}");
    let extra = single_fact(&schema, days_from_civil(2000, 5, 7), 0, [1, 100, 2, 9000]);
    let mut ops = vec![Op::Load(mo), Op::Sync(baseline)];
    for &t in &ticks[..3] {
        ops.push(Op::Age(t));
    }
    ops.push(Op::Ckpt);
    ops.push(Op::Load(extra));
    ops.push(Op::Age(ticks[3]));
    ops.push(Op::Age(*ticks.last().unwrap()));
    (spec, ops)
}

/// The legal recovery watermarks of a workload: `None` (nothing replayed)
/// or the target day of some `Sync`/`Age` op — i.e. a whole-tick
/// boundary. A crash mid-`age` must never surface a day between ticks.
fn watermarks(ops: &[Op]) -> std::collections::BTreeSet<i32> {
    ops.iter()
        .filter_map(|op| match op {
            Op::Sync(t) | Op::Age(t) => Some(*t),
            _ => None,
        })
        .collect()
}

/// The aging workload must be clean when nothing is injected, and the
/// durable run must recover bit-for-bit.
#[test]
fn aging_workload_is_clean() {
    let (spec, ops) = aging_workload();
    let m = reference(&spec, &ops);
    assert!(!m.is_empty());
    let dir = tmpdir("age-clean");
    let logged = ops.iter().filter(|o| o.is_logged()).count() as u64;
    let acked = run_workload(&spec, &dir, RealFs::shared(), &ops);
    assert_eq!(acked, logged);
    assert_eq!(state(&recover(&spec, &dir)), state(&reference(&spec, &ops)));
    std::fs::remove_dir_all(&dir).ok();
}

/// ISSUE 7, crash matrix: every fault mode at every mutating fs op of
/// the aging workload — including faults landing mid-`age`, inside a
/// multi-tick jump. Recovery must land on a whole-tick prefix (the
/// recovered watermark is a scheduled tick day, never between ticks),
/// and recovery + resume must converge to the never-crashed reference.
#[test]
fn aging_crash_matrix_over_every_fs_op() {
    let (spec, ops) = aging_workload();
    let legal = watermarks(&ops);
    // Count the mutating fs ops of a clean run.
    let dir = tmpdir("age-count");
    let counting = FailpointFs::counting(RealFs::shared());
    run_workload(&spec, &dir, counting.clone(), &ops);
    let total = counting.ops();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        total > 10,
        "aging workload too small to be interesting: {total} fs ops"
    );

    for mode in FaultMode::ALL {
        for k in 0..total {
            let ctx = format!("aging mode={mode:?} fail_op={k}");
            let dir = tmpdir("age-matrix");
            let shim = FailpointFs::new(RealFs::shared(), 0xA9E5EED ^ k, k, mode);
            let acked = run_workload(&spec, &dir, shim.clone(), &ops);
            assert!(shim.crashed(), "{ctx}: fault never fired");
            if established(&dir) {
                let (w, _) = ShardRouter::recover(spec.clone(), &dir)
                    .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
                let last = w.last_sync();
                assert!(
                    last.is_none_or(|d| legal.contains(&d)),
                    "{ctx}: recovered mid-tick watermark {last:?} not in {legal:?}"
                );
            }
            recover_and_verify(&spec, &dir, &ops, acked, &ctx);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Double-crash: a second fault during the *recovered* warehouse's next
/// checkpoint still leaves a recoverable directory.
#[test]
fn crash_during_post_recovery_checkpoint() {
    let (spec, ops) = paper_workload();
    let dir = tmpdir("double");
    // First crash: torn WAL append midway through the workload.
    let shim = FailpointFs::new(RealFs::shared(), 7, 12, FaultMode::ShortWrite);
    let acked = run_workload(&spec, &dir, shim, &ops);
    // Recover, then crash again during checkpoint().
    let (w, report) = ShardRouter::recover(spec.clone(), &dir).unwrap();
    assert!(report.ops_durable >= acked);
    for k in 0..6 {
        let w2 = ShardRouter::recover_with_fs(
            spec.clone(),
            &dir,
            FailpointFs::new(RealFs::shared(), 11, k, FaultMode::FailWrite),
        )
        .map(|(w2, _)| w2)
        .unwrap_or_else(|_| {
            // Recovery itself read-only fails only if the shim fired on
            // the repair write of a torn tail; the directory is intact.
            recover(&spec, &dir)
        });
        let _ = w2.checkpoint(); // may fail; must never corrupt
        assert_eq!(state(&recover(&spec, &dir)), state(&w));
    }
    let _ = w.checkpoint();
    std::fs::remove_dir_all(&dir).ok();
}

/// The group-commit workload: the paper workload's logical ops packed
/// into four batches, each journaled as ONE WAL record (one fsync).
fn batched_workload() -> (DataReductionSpec, Vec<Vec<WarehouseOp>>) {
    use WarehouseOp as W;
    let (mo, _) = paper_mo();
    let schema = Arc::clone(mo.schema());
    let a1 = parse_action(&schema, ACTION_A1).unwrap();
    let a2 = parse_action(&schema, ACTION_A2).unwrap();
    let a3 = parse_action(&schema, ACTION_A3).unwrap();
    let spec = DataReductionSpec::new(Arc::clone(&schema), vec![a1, a2]).unwrap();
    let extra = single_fact(&schema, days_from_civil(2000, 5, 7), 0, [1, 100, 2, 9000]);
    let batches = vec![
        vec![W::BulkLoad(mo), W::Sync(days_from_civil(2000, 6, 5))],
        vec![
            W::SpecInsert(vec![a3]),
            W::BulkLoad(extra),
            W::Sync(days_from_civil(2000, 11, 5)),
        ],
        vec![
            W::Sync(days_from_civil(2001, 2, 5)),
            W::SpecDelete(vec![ActionId(2)], days_from_civil(2001, 2, 5)),
        ],
        vec![W::Sync(days_from_civil(2001, 6, 5))],
    ];
    (spec, batches)
}

/// Applies a prefix of batches op by op (one plain record each, not the
/// group path) to an in-memory warehouse — the reference state a
/// crashed-and-recovered warehouse must land on exactly.
fn batch_reference(
    spec: &DataReductionSpec,
    batches: &[Vec<WarehouseOp>],
    n_batches: usize,
) -> ShardRouter {
    use WarehouseOp as W;
    let m = ShardRouter::in_memory(spec.clone());
    for b in &batches[..n_batches] {
        for op in b {
            match op {
                W::BulkLoad(mo) => {
                    m.bulk_load(mo).unwrap();
                }
                W::Sync(t) => {
                    m.sync(*t).unwrap();
                }
                W::Age(t) => {
                    m.age(*t).unwrap();
                }
                W::SpecInsert(a) => {
                    m.spec_insert(a.clone()).unwrap();
                }
                W::SpecDelete(ids, t) => m.spec_delete(ids, *t).unwrap(),
            }
        }
    }
    m
}

/// Runs `create` + the batches through `fs`, stopping at the first
/// error. Returns how many batches were acknowledged (`Ok`).
fn run_batches(
    spec: &DataReductionSpec,
    dir: &std::path::Path,
    fs: Arc<dyn Fs>,
    batches: &[Vec<WarehouseOp>],
) -> usize {
    let Ok(w) = ShardRouter::create_with_fs(spec.clone(), dir, 1, fs) else {
        return 0;
    };
    let mut acked = 0;
    for b in batches {
        if w.apply_batch(b.clone()).is_err() {
            break;
        }
        acked += 1;
    }
    acked
}

/// The group-commit sanity run: with no faults injected, every batch is
/// acknowledged, counted per-op, and recovered bit-for-bit.
#[test]
fn batched_workload_is_clean() {
    let (spec, batches) = batched_workload();
    let total_ops: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let dir = tmpdir("batch-clean");
    let acked = run_batches(&spec, &dir, RealFs::shared(), &batches);
    assert_eq!(acked, batches.len());
    let (w, report) = ShardRouter::recover(spec.clone(), &dir).unwrap();
    assert_eq!(report.ops_durable, total_ops);
    assert_eq!(
        report.replayed as u64, total_ops,
        "replay counts per-op in batches"
    );
    assert_eq!(
        state(&w),
        state(&batch_reference(&spec, &batches, batches.len()))
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// ISSUE 4, satellite 4: a `FailpointFs` crash in the middle of a
/// group-committed WAL batch must recover to a *prefix of acknowledged
/// batches* — no acknowledged op lost, no partial batch applied. Every
/// fault mode at every mutating fs op of the batched workload; the
/// decisive assertion is that the recovered op count always sits on a
/// batch boundary and the recovered state equals the plain-manager
/// reference for exactly that many whole batches.
#[test]
fn group_commit_crash_recovers_whole_batch_prefix() {
    let (spec, batches) = batched_workload();
    let prefix_ops: Vec<u64> = batches
        .iter()
        .scan(0u64, |acc, b| {
            *acc += b.len() as u64;
            Some(*acc)
        })
        .collect(); // ops after 1, 2, … whole batches
    let boundary = |ops: u64| -> Option<usize> {
        if ops == 0 {
            return Some(0);
        }
        prefix_ops.iter().position(|&p| p == ops).map(|i| i + 1)
    };

    // Count the mutating fs ops of a clean run.
    let dir = tmpdir("batch-count");
    let counting = FailpointFs::counting(RealFs::shared());
    run_batches(&spec, &dir, counting.clone(), &batches);
    let total = counting.ops();
    std::fs::remove_dir_all(&dir).ok();
    assert!(total > 8, "batched workload too small: {total} fs ops");

    for mode in FaultMode::ALL {
        for k in 0..total {
            let ctx = format!("mode={mode:?} fail_op={k}");
            let dir = tmpdir("batch-matrix");
            let shim = FailpointFs::new(RealFs::shared(), 0xBA7C4 ^ k, k, mode);
            let acked = run_batches(&spec, &dir, shim.clone(), &batches);
            assert!(shim.crashed(), "{ctx}: fault never fired");
            if !established(&dir) {
                assert_eq!(acked, 0, "{ctx}: acked batches but no warehouse");
                std::fs::remove_dir_all(&dir).ok();
                continue;
            }
            let (w, report) = ShardRouter::recover(spec.clone(), &dir)
                .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
            // No acknowledged op lost…
            let acked_ops: u64 = batches[..acked].iter().map(|b| b.len() as u64).sum();
            assert!(
                report.ops_durable >= acked_ops,
                "{ctx}: acked {acked_ops} ops but only {} durable",
                report.ops_durable
            );
            // …and nothing partial: the durable count sits exactly on a
            // batch boundary (the group frame is all-or-nothing), at most
            // one in-flight batch past the acknowledged prefix.
            let n_batches = boundary(report.ops_durable).unwrap_or_else(|| {
                panic!(
                    "{ctx}: ops_durable={} is not a whole-batch prefix of {prefix_ops:?}",
                    report.ops_durable
                )
            });
            assert!(
                n_batches <= acked + 1,
                "{ctx}: {n_batches} durable batches but only {acked} acknowledged"
            );
            assert_eq!(
                state(&w),
                state(&batch_reference(&spec, &batches, n_batches)),
                "{ctx}: recovered state is not the {n_batches}-batch reference"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary workloads, arbitrary crash points, every fault mode:
    /// `recover()` + resume is indistinguishable from never crashing —
    /// facts, per-cube granularities, `last_sync`, and the `SyncStats`
    /// of a probe sync all agree.
    #[test]
    fn recovery_equals_never_crashed(
        kinds in proptest::collection::vec((0u8..8, 0u32..90, 0usize..4), 2..9),
        fail_op in 0u64..48,
        mode_ix in 0usize..3,
        seed in any::<u64>(),
    ) {
        let (mo, _) = paper_mo();
        let schema = Arc::clone(mo.schema());
        let a1 = parse_action(&schema, ACTION_A1).unwrap();
        let a2 = parse_action(&schema, ACTION_A2).unwrap();
        let spec = DataReductionSpec::new(Arc::clone(&schema), vec![a1, a2]).unwrap();

        // Build a workload: the clock only moves forward; loads insert
        // single clicks at the current day; every op kind is reachable.
        let mut clock = days_from_civil(2000, 1, 1);
        let mut ops = vec![Op::Load(mo)];
        for (kind, dd, ui) in kinds {
            clock += dd as i32;
            match kind {
                0..=2 => ops.push(Op::Load(single_fact(
                    &schema, clock, ui, [1, 10 + dd as i64, 1, 1000],
                ))),
                3..=4 => ops.push(Op::Sync(clock)),
                // The clock is monotone, so incremental aging is always
                // legal here (never behind the watermark).
                5..=6 => ops.push(Op::Age(clock)),
                _ => ops.push(Op::Ckpt),
            }
        }
        ops.push(Op::Sync(clock + 30));

        let dir = tmpdir("prop");
        let mode = FaultMode::ALL[mode_ix];
        let shim = FailpointFs::new(RealFs::shared(), seed, fail_op, mode);
        let acked = run_workload(&spec, &dir, shim, &ops);
        let (facts, cubes, last) = recover_and_verify(&spec, &dir, &ops, acked, "prop");

        // Probe sync: the recovered-and-resumed warehouse and the
        // reference react identically to the next tick.
        let probe = clock + 60;
        let reference_m = reference(&spec, &ops);
        let ref_stats: SyncStats = reference_m.sync(probe).unwrap();
        if established(&dir) {
            let w = recover(&spec, &dir);
            // Skip the durable prefix, re-apply the rest, then probe.
            let durable = w.ops_durable();
            let mut skipped = 0;
            for op in &ops {
                if op.is_logged() && skipped < durable {
                    skipped += 1;
                    continue;
                }
                if op.is_logged() {
                    op.apply(&w).unwrap();
                }
            }
            let got_stats = w.sync(probe).unwrap();
            prop_assert_eq!(got_stats, ref_stats);
            let (f2, c2, l2) = state(&w);
            let (rf, rc, rl) = state(&reference_m);
            prop_assert_eq!(f2, rf);
            prop_assert_eq!(c2, rc);
            prop_assert_eq!(l2, rl);
        }
        let _ = (facts, cubes, last);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// FNV-1a64 over the rendered state — the digest `scripts/ci.sh` compares
/// across repeated runs of the same seeded crash schedule.
fn digest(s: &(Vec<String>, Vec<String>, Option<i32>)) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for line in s.0.iter().chain(s.1.iter()) {
        eat(line.as_bytes());
        eat(b"\n");
    }
    eat(format!("{:?}", s.2).as_bytes());
    h
}

/// One seeded crash schedule, run twice end to end: the recovered state
/// must be byte-identical. `SPECDR_CRASH_SEED` selects the schedule
/// (`scripts/ci.sh` loops it over 25 seeds); the digest line it prints is
/// what CI compares for cross-run determinism.
#[test]
fn seeded_crash_schedule_is_deterministic() {
    let seed: u64 = std::env::var("SPECDR_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    // SplitMix64: derive (fail_op, mode) from the seed.
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let (spec, ops) = paper_workload();
    let fail_op = z % 40;
    let mode = FaultMode::ALL[(z >> 8) as usize % 3];

    let mut digests = Vec::new();
    for round in 0..2 {
        let dir = tmpdir(&format!("seeded-{round}"));
        let shim = FailpointFs::new(RealFs::shared(), seed, fail_op, mode);
        let acked = run_workload(&spec, &dir, shim, &ops);
        let s = recover_and_verify(
            &spec,
            &dir,
            &ops,
            acked,
            &format!("seed={seed} round={round}"),
        );
        digests.push(digest(&s));
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(
        digests[0], digests[1],
        "seed={seed}: crash schedule is not deterministic"
    );
    println!(
        "crash-schedule seed={seed} fail_op={fail_op} mode={mode:?} digest={:016x}",
        digests[0]
    );
}

/// ISSUE 7: the aging twin of [`seeded_crash_schedule_is_deterministic`]
/// — one seeded crash-during-tick schedule over the aging workload, run
/// twice; the recovered state must be byte-identical. `scripts/ci.sh`
/// loops `SPECDR_CRASH_SEED` over 25 seeds and compares the printed
/// digest line across runs.
#[test]
fn seeded_aging_crash_schedule_is_deterministic() {
    let seed: u64 = std::env::var("SPECDR_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    // SplitMix64: derive (fail_op, mode) from the seed, decorrelated from
    // the plain schedule by a distinct stream constant.
    let mut z = seed
        .wrapping_mul(0xA61B_5C71_97E0_D111)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let (spec, ops) = aging_workload();
    let legal = watermarks(&ops);
    let fail_op = z % 48;
    let mode = FaultMode::ALL[(z >> 8) as usize % 3];

    let mut digests = Vec::new();
    for round in 0..2 {
        let dir = tmpdir(&format!("age-seeded-{round}"));
        let shim = FailpointFs::new(RealFs::shared(), seed, fail_op, mode);
        let acked = run_workload(&spec, &dir, shim, &ops);
        if established(&dir) {
            let last = recover(&spec, &dir).last_sync();
            assert!(
                last.is_none_or(|d| legal.contains(&d)),
                "seed={seed}: recovered mid-tick watermark {last:?}"
            );
        }
        let s = recover_and_verify(
            &spec,
            &dir,
            &ops,
            acked,
            &format!("aging seed={seed} round={round}"),
        );
        digests.push(digest(&s));
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(
        digests[0], digests[1],
        "seed={seed}: aging crash schedule is not deterministic"
    );
    println!(
        "aging-crash-schedule seed={seed} fail_op={fail_op} mode={mode:?} digest={:016x}",
        digests[0]
    );
}

/// ISSUE 8, satellite 4: storage-format round-trip matrix. A directory
/// written by the format-2 (PR 6) checkpointer must load under current
/// code, and re-checkpointing it as format 3 must be crash-atomic: a
/// [`FailpointFs`] fault at any mutating fs op of the rewrite leaves
/// the directory loadable — at either the legacy or the migrated
/// checkpoint — with bit-identical warehouse state, and a clean retry
/// always lands on format 3 with statistics matching a recomputation.
#[test]
fn format2_migration_crash_matrix() {
    let (mo, _) = paper_mo();
    let schema = Arc::clone(mo.schema());
    let a1 = parse_action(&schema, ACTION_A1).unwrap();
    let a2 = parse_action(&schema, ACTION_A2).unwrap();
    let spec = DataReductionSpec::new(schema, vec![a1, a2]).unwrap();
    let live_format = |dir: &Path| read_manifest(dir.join("shard-000")).unwrap().format;
    // A fresh directory whose live checkpoint is format 2; returns the
    // warehouse state it holds.
    let legacy_dir = |dir: &Path| {
        let m = ShardRouter::create(spec.clone(), dir, 1).unwrap();
        m.bulk_load(&mo).unwrap();
        m.sync(days_from_civil(2000, 11, 5)).unwrap();
        m.checkpoint_legacy_format2().unwrap();
        state(&m)
    };

    // Clean round trip: fabricated legacy dir -> current loader ->
    // format-3 re-checkpoint -> identical state either side.
    let dir = tmpdir("fmt2-clean");
    let want = legacy_dir(&dir);
    assert_eq!(
        live_format(&dir),
        2,
        "fabricated dir must read back as format 2"
    );
    let loaded = recover(&spec, &dir);
    assert_eq!(
        state(&loaded),
        want,
        "legacy checkpoint loads bit-identically"
    );
    loaded.checkpoint().unwrap();
    assert_eq!(live_format(&dir), 3);
    assert_eq!(
        state(&recover(&spec, &dir)),
        want,
        "migrated checkpoint round-trips"
    );
    std::fs::remove_dir_all(&dir).ok();

    // Count the mutating fs ops of one clean migration: recovery of the
    // legacy directory plus the format-3 rewrite.
    let dir = tmpdir("fmt2-count");
    legacy_dir(&dir);
    let counting = FailpointFs::counting(RealFs::shared());
    ShardRouter::recover_with_fs(spec.clone(), &dir, counting.clone())
        .unwrap()
        .0
        .checkpoint()
        .unwrap();
    let total = counting.ops();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        total > 5,
        "rewrite too small to be interesting: {total} fs ops"
    );

    for mode in FaultMode::ALL {
        for k in 0..total {
            let ctx = format!("fmt2 mode={mode:?} fail_op={k}");
            let dir = tmpdir("fmt2-matrix");
            legacy_dir(&dir);
            let shim = FailpointFs::new(RealFs::shared(), 0xF0F2F3 ^ k, k, mode);
            let res = ShardRouter::recover_with_fs(spec.clone(), &dir, shim.clone())
                .and_then(|(w, _)| w.checkpoint());
            assert!(shim.crashed(), "{ctx}: fault never fired");

            // Crash or not, the directory stays loadable with identical
            // state: either checkpoint generation may be live, but never
            // a torn mixture.
            let (recovered, _) = ShardRouter::recover(spec.clone(), &dir)
                .unwrap_or_else(|e| panic!("{ctx}: load after crash failed: {e}"));
            assert_eq!(state(&recovered), want, "{ctx}: state torn by crash");
            let format = live_format(&dir);
            if res.is_ok() {
                assert_eq!(format, 3, "{ctx}: acked rewrite must be format 3");
            } else {
                assert!(
                    format == 2 || format == 3,
                    "{ctx}: unknown live format {format}"
                );
            }

            // A clean retry always completes the migration.
            recovered
                .checkpoint()
                .unwrap_or_else(|e| panic!("{ctx}: retry failed: {e}"));
            assert_eq!(live_format(&dir), 3, "{ctx}");
            let done = recover(&spec, &dir);
            assert_eq!(state(&done), want, "{ctx}: migrated state diverges");
            let set = done.view_set();
            for (i, c) in set.views()[0].cubes().iter().enumerate() {
                assert_eq!(
                    *c.stats(),
                    SubcubeStats::compute(c.data(), c.epoch()),
                    "{ctx}: K{i} statistics diverge after migration"
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
