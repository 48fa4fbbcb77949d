//! Sharded-vs-unsharded differential suite (ISSUE 9, satellite 3).
//!
//! An N-shard [`ShardRouter`] must be *observationally identical* to a
//! one-shard in-memory one: same accept/reject decision for every churn
//! op, same query-mix digests in both sync states at every evaluation
//! day, and the same whole-batch / whole-tick semantics across crashes.
//! The one-shard reference is itself checked against the paper's
//! logical oracle, `sdr_reduce::reduce`, after accepted syncs. The
//! tests here drive random `sdr-workload` churn schedules through both
//! and compare content digests, then repeat under injected failures:
//! a torn record in a single shard's WAL, a seeded [`FailpointFs`]
//! crash matrix, and a cross-shard checkpoint interrupted between
//! shards. Recovery must land on a state equal to replaying a *prefix*
//! of the acknowledged operations — never a state mixing shards from
//! different logical times.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use specdr::driver::result_digest;
use specdr::mdm::calendar::days_from_civil;
use specdr::reduce::{reduce, DataReductionSpec};
use specdr::serve::mix_specs;
use specdr::spec::parse_action;
use specdr::storage::fs::{FailpointFs, FaultMode, RealFs};
use specdr::storage::{scan_wal, Fs};
use specdr::subcube::{ShardRouter, SubcubeError, WarehouseLayout};
use specdr::workload::{churn_script, paper_schema, ChurnOp, ACTION_A1, ACTION_A2};

fn paper_spec() -> DataReductionSpec {
    let (schema, _) = paper_schema();
    let a1 = parse_action(&schema, ACTION_A1).unwrap();
    let a2 = parse_action(&schema, ACTION_A2).unwrap();
    DataReductionSpec::new(Arc::clone(&schema), vec![a1, a2]).unwrap()
}

fn tdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sdr-shard-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// Applies one churn op through a router. `Ok(true)` = accepted
/// (published), `Ok(false)` = legal rejection.
fn apply_router(r: &ShardRouter, op: &ChurnOp) -> Result<bool, SubcubeError> {
    let res = match op {
        ChurnOp::Load(mo) => r.bulk_load(mo).map(|_| ()),
        ChurnOp::Sync(t) => r.sync(*t).map(|_| ()),
        ChurnOp::SpecInsert(a) => r.spec_insert(vec![a.clone()]).map(|_| ()),
        ChurnOp::SpecDelete(id, t) => r.spec_delete(&[*id], *t),
    };
    match res {
        Ok(()) => Ok(true),
        Err(SubcubeError::Reduce(_)) => Ok(false),
        Err(e) => Err(e),
    }
}

/// The driver's three evaluation days.
fn query_days() -> [i32; 3] {
    [
        days_from_civil(2000, 9, 15),
        days_from_civil(2001, 6, 15),
        days_from_civil(2002, 3, 1),
    ]
}

/// Digest of an MO's *logical* content: facts grouped by their cell
/// coordinates with measures folded through each measure's aggregate
/// function. Two shards can each hold an aggregated fact for the same
/// (month, domain) cell when the cell's bottom facts were split across
/// them; the union re-aggregates to the unsharded fact under every
/// query, so content equality is defined modulo that regrouping.
fn canonical_digest(mo: &specdr::mdm::Mo) -> u64 {
    let schema = mo.schema();
    let mut cells: std::collections::BTreeMap<Vec<specdr::mdm::DimValue>, Vec<i64>> =
        std::collections::BTreeMap::new();
    for f in mo.facts() {
        let coords = mo.coords(f);
        let measures = mo.measures_of(f);
        match cells.entry(coords) {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(measures);
            }
            std::collections::btree_map::Entry::Occupied(mut o) => {
                for (i, acc) in o.get_mut().iter_mut().enumerate() {
                    *acc = schema.measures[i].agg.combine(*acc, measures[i]);
                }
            }
        }
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (coords, measures) in &cells {
        for b in format!("{coords:?}|{measures:?};").bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Query-mix digests (4 queries × 3 days × {synced, unsync}) plus the
/// canonicalized content digest — the full observable surface of one
/// state.
fn router_digests(r: &ShardRouter) -> Vec<u64> {
    let schema = r.schema();
    let mut out = vec![canonical_digest(&r.view_set().to_mo().unwrap())];
    for &now in &query_days() {
        for unsync in [false, true] {
            for spec in mix_specs(now, unsync) {
                let q = spec.build(schema).unwrap();
                let res = if unsync {
                    r.query_unsync(&q, now, true)
                } else {
                    r.query(&q, now, true)
                }
                .unwrap();
                out.push(result_digest(&res));
            }
        }
    }
    out
}

/// [`router_digests`] of a one-shard reference, evaluated sequentially
/// on its single view (no scatter/gather).
fn reference_digests(m: &ShardRouter) -> Vec<u64> {
    let set = m.view_set();
    let view = &set.views()[0];
    let schema = view.schema();
    let mut out = vec![canonical_digest(&view.to_mo().unwrap())];
    for &now in &query_days() {
        for unsync in [false, true] {
            for spec in mix_specs(now, unsync) {
                let q = spec.build(schema).unwrap();
                let res = if unsync {
                    view.query_unsync(&q, now, false)
                } else {
                    view.query(&q, now, false)
                }
                .unwrap();
                out.push(result_digest(&res));
            }
        }
    }
    out
}

/// The core differential matrix: N ∈ {1, 2, 4, 7} shards × seeded
/// random churn schedules against a one-shard in-memory reference.
/// Accept/reject parity on every op; digest equality of the full
/// observable surface at the end and at a mid-schedule checkpoint; and
/// after every accepted sync (up to the first spec delete) the
/// reference's content equals `sdr_reduce::reduce` of every fact loaded
/// so far.
#[test]
fn sharded_matches_unsharded_over_random_churn() {
    for &shards in &[1usize, 2, 4, 7] {
        for seed in 0..3u64 {
            let dir = tdir(&format!("diff-{shards}-{seed}"));
            let schema = Arc::clone(paper_spec().schema());
            let router = ShardRouter::create(paper_spec(), &dir, shards)
                .unwrap_or_else(|e| panic!("create {shards}/{seed}: {e}"));
            let mgr = ShardRouter::in_memory(paper_spec());
            let mut loaded = specdr::mdm::Mo::new(Arc::clone(&schema));
            let mut oracle_holds = true;
            let mut oracle_checks = 0;
            let script = churn_script(&schema, seed, 16);
            for (i, op) in script.iter().enumerate() {
                let a = apply_router(&router, op)
                    .unwrap_or_else(|e| panic!("shards={shards} seed={seed} op {i}: {e}"));
                let b = apply_router(&mgr, op).unwrap();
                assert_eq!(
                    a, b,
                    "shards={shards} seed={seed}: accept/reject diverged at op {i}"
                );
                match op {
                    ChurnOp::Load(mo) if b => loaded.absorb(mo).unwrap(),
                    // Reduction is irreversible: facts an action already
                    // aggregated stay aggregated after it is deleted, so
                    // `reduce` over the raw facts stops being the oracle.
                    ChurnOp::SpecDelete(..) if b => oracle_holds = false,
                    ChurnOp::Sync(t) if b && oracle_holds => {
                        assert_eq!(
                            canonical_digest(&mgr.view_set().to_mo().unwrap()),
                            canonical_digest(&reduce(&loaded, &mgr.spec(), *t).unwrap()),
                            "seed={seed}: one-shard warehouse diverged from reduce at op {i}"
                        );
                        oracle_checks += 1;
                    }
                    _ => {}
                }
                if i == script.len() / 2 {
                    assert_eq!(
                        router_digests(&router),
                        reference_digests(&mgr),
                        "shards={shards} seed={seed}: digests diverged mid-schedule"
                    );
                }
            }
            assert_eq!(
                router_digests(&router),
                reference_digests(&mgr),
                "shards={shards} seed={seed}: digests diverged at end"
            );
            assert!(oracle_checks > 0, "seed={seed}: reduce oracle never ran");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Whole-batch parity: `apply_batch` publishes all-or-nothing across
/// shards exactly like the unsharded group append.
#[test]
fn sharded_apply_batch_matches_unsharded() {
    use specdr::subcube::WarehouseOp;
    let dir = tdir("batch");
    let schema = Arc::clone(paper_spec().schema());
    let router = ShardRouter::create(paper_spec(), &dir, 3).unwrap();
    let mgr = ShardRouter::in_memory(paper_spec());
    let script = churn_script(&schema, 9, 8);
    let ops: Vec<WarehouseOp> = script
        .iter()
        .filter_map(|op| match op {
            ChurnOp::Load(mo) => Some(WarehouseOp::BulkLoad(mo.clone())),
            ChurnOp::Sync(t) => Some(WarehouseOp::Sync(*t)),
            _ => None,
        })
        .collect();
    assert!(ops.len() >= 4, "schedule too short for a batch test");
    router.apply_batch(ops.clone()).unwrap();
    for op in &ops {
        match op {
            WarehouseOp::BulkLoad(mo) => {
                mgr.bulk_load(mo).unwrap();
            }
            WarehouseOp::Sync(t) => {
                mgr.sync(*t).unwrap();
            }
            _ => unreachable!(),
        }
    }
    assert_eq!(router_digests(&router), reference_digests(&mgr));
    std::fs::remove_dir_all(&dir).ok();
}

/// Replays the first `n_accepted` accepted ops of `script` into a fresh
/// one-shard in-memory warehouse and returns its digests — the reference
/// state for prefix-recovery checks.
fn prefix_reference(
    schema: &Arc<specdr::mdm::Schema>,
    script: &[ChurnOp],
    n_accepted: usize,
) -> Vec<u64> {
    let mgr = ShardRouter::in_memory(paper_spec());
    let _ = schema;
    let mut accepted = 0;
    for op in script {
        if accepted == n_accepted {
            break;
        }
        if apply_router(&mgr, op).unwrap() {
            accepted += 1;
        }
    }
    assert_eq!(accepted, n_accepted, "schedule has too few accepted ops");
    reference_digests(&mgr)
}

/// A torn record in a *single* shard's WAL: recovery must align every
/// shard back to the longest common prefix — the state is exactly the
/// unsharded replay of all but the last acknowledged op, for whichever
/// shard was hit.
#[test]
fn torn_single_shard_wal_recovers_to_common_prefix() {
    let shards = 4usize;
    let schema = Arc::clone(paper_spec().schema());
    let script = churn_script(&schema, 5, 12);
    for victim in 0..shards {
        let dir = tdir(&format!("torn-{victim}"));
        let router = ShardRouter::create(paper_spec(), &dir, shards).unwrap();
        let mut accepted = 0usize;
        for op in &script {
            if apply_router(&router, op).unwrap() {
                accepted += 1;
            }
        }
        assert!(accepted >= 3);
        drop(router);

        // Tear the tail of the victim shard's epoch-0 WAL: flip a byte
        // inside the last record's payload. `scan_wal` will drop it.
        let wal_path = WarehouseLayout::at(&dir).shard(victim).wal(0);
        let fs = RealFs::shared();
        let mut bytes = fs.read(&wal_path).unwrap();
        let scan = scan_wal(fs.as_ref(), &wal_path).unwrap();
        assert_eq!(scan.records.len(), accepted, "one record per accepted op");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x41;
        std::fs::write(&wal_path, &bytes).unwrap();

        let (recovered, report) = ShardRouter::recover(paper_spec(), &dir)
            .unwrap_or_else(|e| panic!("victim={victim}: {e}"));
        assert_eq!(
            report.dropped_records,
            shards - 1,
            "victim={victim}: the other shards each drop their now-unacknowledged tail record"
        );
        assert!(!report.resumed_checkpoint);
        assert_eq!(
            router_digests(&recovered),
            prefix_reference(&schema, &script, accepted - 1),
            "victim={victim}: recovered state is not the common-prefix replay"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Seeded crash matrix: a [`FailpointFs`] `CrashAfter` fault at the
/// k-th mutating filesystem op (which lands inside *some* shard's WAL
/// or checkpoint machinery). Recovery must land on the replay of some
/// prefix of the accepted ops — prefix membership, not just internal
/// consistency.
#[test]
fn failpoint_crash_matrix_recovers_to_a_prefix() {
    let shards = 2usize;
    let schema = Arc::clone(paper_spec().schema());
    let script = churn_script(&schema, 11, 10);

    // Reference digests for every accepted-prefix length.
    let total_accepted = {
        let mgr = ShardRouter::in_memory(paper_spec());
        script
            .iter()
            .filter(|op| apply_router(&mgr, op).unwrap())
            .count()
    };
    let prefixes: Vec<Vec<u64>> = (0..=total_accepted)
        .map(|n| prefix_reference(&schema, &script, n))
        .collect();

    for k in (2..40).step_by(3) {
        let dir = tdir(&format!("crash-{k}"));
        let shim = FailpointFs::new(RealFs::shared(), 0xBEEF ^ k, k, FaultMode::CrashAfter);
        let crashed = match ShardRouter::create_with_fs(
            paper_spec(),
            &dir,
            shards,
            shim.clone() as Arc<dyn Fs>,
        ) {
            Ok(router) => {
                let mut crashed = false;
                for op in &script {
                    match apply_router(&router, op) {
                        Ok(_) => {}
                        Err(_) => {
                            crashed = true;
                            break;
                        }
                    }
                }
                crashed
            }
            Err(_) => true,
        };
        if !crashed && !shim.crashed() {
            // Fault point beyond the workload: nothing to recover.
            std::fs::remove_dir_all(&dir).ok();
            continue;
        }
        // The SHARDS manifest is written last in create; a crash before
        // it leaves a directory with no sharded warehouse to recover.
        if !RealFs::shared().exists(&WarehouseLayout::at(&dir).shards_manifest()) {
            std::fs::remove_dir_all(&dir).ok();
            continue;
        }
        let (recovered, _report) = ShardRouter::recover(paper_spec(), &dir)
            .unwrap_or_else(|e| panic!("k={k}: recovery failed: {e}"));
        let got = router_digests(&recovered);
        assert!(
            prefixes.contains(&got),
            "k={k}: recovered state matches no accepted-prefix replay"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Recursively copies a directory (the test's snapshot tool).
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for e in std::fs::read_dir(src).unwrap() {
        let e = e.unwrap();
        let to = dst.join(e.file_name());
        if e.file_type().unwrap().is_dir() {
            copy_dir(&e.path(), &to);
        } else {
            std::fs::copy(e.path(), &to).unwrap();
        }
    }
}

/// A cross-shard checkpoint interrupted between shards: shard 0 already
/// at the next epoch, shard 1 still on the previous one, top-level
/// manifest not yet republished. Recovery finishes the checkpoint
/// (`resumed_checkpoint`) and the state equals the pre-crash state.
#[test]
fn interrupted_cross_shard_checkpoint_resumes() {
    let dir = tdir("ckpt-resume");
    let schema = Arc::clone(paper_spec().schema());
    let script = churn_script(&schema, 3, 8);
    let router = ShardRouter::create(paper_spec(), &dir, 2).unwrap();
    for op in &script {
        apply_router(&router, op).unwrap();
    }
    let want = router_digests(&router);

    // Snapshot shard 1 before the checkpoint, checkpoint, then restore
    // the snapshot — shard 0 finished its part, shard 1 "crashed"
    // before starting, and the SHARDS manifest (written last) still
    // names the old epoch exactly as a real interruption would leave it.
    let shard1 = WarehouseLayout::at(&dir).shard(1).root().to_path_buf();
    let snap = tdir("ckpt-resume-snap");
    copy_dir(&shard1, &snap);
    let manifest_before = std::fs::read(WarehouseLayout::at(&dir).shards_manifest()).unwrap();
    drop(router);
    {
        let (router, _) = ShardRouter::recover(paper_spec(), &dir).unwrap();
        router.checkpoint().unwrap();
    }
    std::fs::remove_dir_all(&shard1).unwrap();
    copy_dir(&snap, &shard1);
    std::fs::write(
        WarehouseLayout::at(&dir).shards_manifest(),
        &manifest_before,
    )
    .unwrap();

    let (recovered, report) = ShardRouter::recover(paper_spec(), &dir).unwrap();
    assert!(
        report.resumed_checkpoint,
        "recovery must detect and finish the interrupted checkpoint"
    );
    assert_eq!(
        router_digests(&recovered),
        want,
        "state changed across the resume"
    );
    // The finished checkpoint is durable: a second recovery is clean.
    drop(recovered);
    let (again, report2) = ShardRouter::recover(paper_spec(), &dir).unwrap();
    assert!(!report2.resumed_checkpoint);
    assert_eq!(router_digests(&again), want);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&snap).ok();
}

/// Routing is deterministic and total: every fact of a loaded MO lands
/// on the shard `route` names, and a reopened router (fresh process)
/// routes identically.
#[test]
fn routing_is_deterministic_across_reopen() {
    let dir = tdir("route");
    let schema = Arc::clone(paper_spec().schema());
    let script = churn_script(&schema, 7, 10);
    let router = ShardRouter::create(paper_spec(), &dir, 4).unwrap();
    for op in &script {
        apply_router(&router, op).unwrap();
    }
    let set = router.view_set();
    for (i, view) in set.views().iter().enumerate() {
        let mo = view.to_mo().unwrap();
        for f in mo.facts() {
            assert_eq!(
                router.route(&mo.coords(f), 4),
                i,
                "fact stored on shard {i} does not route there"
            );
        }
    }
    let want = router_digests(&router);
    drop(router);
    let reopened = ShardRouter::open(paper_spec(), &dir, 4).unwrap();
    assert_eq!(router_digests(&reopened), want);
    std::fs::remove_dir_all(&dir).ok();
}

/// The wedged-router contract (`specdr check shard` proves the model;
/// this drives the real filesystem): once a scatter fails after any
/// shard acknowledged, every mutator is refused with the wedge error
/// verbatim, queries keep serving the last published epoch, and
/// `ShardRouter::recover` restores service on the pre-failure state.
#[test]
fn failed_scatter_wedges_every_mutator_until_recover() {
    const WEDGE: &str = "storage: sharded warehouse wedged by a failed scatter; \
                         drop it and ShardRouter::recover the directory";
    let (mo, _) = specdr::workload::paper_mo();
    let base = mo.gather(&[0, 1, 2, 3]);
    let doomed = mo.gather(&[4, 5, 6]);
    let day = days_from_civil(2000, 11, 5);

    // Sweep the fault injection point forward until it lands inside the
    // second scatter's WAL appends (earlier ops fail during create or
    // the baseline load, which are uniform failures and must not wedge).
    let mut wedged_cases = 0;
    for k in 0..80u64 {
        let dir = tdir(&format!("wedge-{k}"));
        let fs: Arc<dyn Fs> =
            FailpointFs::new(RealFs::shared(), 0xA11CE ^ k, k, FaultMode::FailWrite);
        let Ok(router) = ShardRouter::create_with_fs(paper_spec(), &dir, 2, Arc::clone(&fs)) else {
            continue;
        };
        if router.bulk_load(&base).is_err() {
            continue;
        }
        let reference = router_digests(&router);
        let epoch0 = router.view_set().epoch();
        let Err(e) = router.bulk_load(&doomed) else {
            // The fault lies beyond this scenario's op count; later ks
            // only move it further out, so the sweep is done.
            std::fs::remove_dir_all(&dir).ok();
            break;
        };
        let msg = e.to_string();
        if !msg.contains("recovery required") {
            continue;
        }
        wedged_cases += 1;

        // Every mutator returns the wedge error verbatim.
        let a1 = parse_action(router.schema(), ACTION_A1).unwrap();
        for (what, err) in [
            ("bulk_load", router.bulk_load(&doomed).unwrap_err()),
            ("sync", router.sync(day).unwrap_err()),
            ("age", router.age(day).unwrap_err()),
            ("spec_insert", router.spec_insert(vec![a1]).err().unwrap()),
            (
                "spec_delete",
                router
                    .spec_delete(&[specdr::spec::ActionId(1)], day)
                    .unwrap_err(),
            ),
        ] {
            assert_eq!(err.to_string(), WEDGE, "`{what}` missed the wedge guard");
        }

        // Readers are still served the last published state, unchanged.
        assert_eq!(router.view_set().epoch(), epoch0);
        assert_eq!(router_digests(&router), reference);

        // Recovery on the healthy filesystem lands on the pre-failure
        // state (the half-scattered record was never acknowledged) and
        // restores write service.
        drop(router);
        let (recovered, _report) = ShardRouter::recover(paper_spec(), &dir).unwrap();
        assert_eq!(router_digests(&recovered), reference);
        recovered.bulk_load(&doomed).unwrap();
        recovered.sync(day).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(
        wedged_cases >= 1,
        "the fault sweep never produced a wedged router"
    );
}
