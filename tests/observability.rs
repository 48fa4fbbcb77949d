//! Integration tests for the `sdr-obs` wiring: the metrics published by
//! reduce, sync, and query must agree exactly with the authoritative
//! numbers those operations return.
//!
//! Everything runs in ONE test function: the instrumented crates publish
//! to the process-global registry, so sequential phases with a `reset()`
//! between them are the only race-free way to assert exact counts.

use std::sync::Arc;

use specdr::mdm::calendar::days_from_civil;
use specdr::obs;
use specdr::query::{AggApproach, SelectMode};
use specdr::reduce::{reduce, DataReductionSpec};
use specdr::spec::parse_action;
use specdr::subcube::{CubeQuery, ShardRouter};
use specdr::workload::{generate, retention_policy, ClickstreamConfig};

fn warehouse() -> (specdr::mdm::Mo, Arc<specdr::mdm::Schema>, DataReductionSpec) {
    let cs = generate(&ClickstreamConfig {
        clicks_per_day: 40,
        start: (1999, 1, 1),
        end: (2000, 6, 28),
        ..Default::default()
    });
    let actions: Vec<_> = retention_policy(6, 36)
        .iter()
        .map(|s| parse_action(&cs.schema, s).unwrap())
        .collect();
    let spec = DataReductionSpec::new(Arc::clone(&cs.schema), actions).unwrap();
    (cs.mo, cs.schema, spec)
}

#[test]
fn metrics_agree_with_authoritative_numbers() {
    let (mo, schema, spec) = warehouse();
    let now = days_from_civil(2001, 6, 28);
    obs::set_enabled(true);

    // --- Phase 1: reduce. collapsed + kept must equal the input count.
    obs::reset();
    let red = reduce(&mo, &spec, now).unwrap();
    let snap = obs::snapshot();
    let collapsed = snap.counter("reduce.facts_collapsed").unwrap();
    let kept = snap.counter("reduce.facts_kept").unwrap();
    assert_eq!(
        collapsed + kept,
        mo.len() as u64,
        "every scanned fact is either collapsed away or kept"
    );
    assert_eq!(kept, red.len() as u64, "kept = rows of the reduced MO");
    assert_eq!(
        snap.counter("reduce.facts_scanned").unwrap(),
        mo.len() as u64
    );
    // The group-size histogram covers every input fact exactly once.
    let members = snap.histogram("reduce.group_members").unwrap();
    assert_eq!(members.count, red.len() as u64);
    assert_eq!(members.sum, mo.len() as u64);
    assert!(members.p50 <= members.p90 && members.p90 <= members.p99);
    // The reduce span recorded exactly one timing.
    assert_eq!(snap.span("reduce.reduce").unwrap().count, 1);

    // --- Phase 2: subcube sync. Counters must equal the returned stats.
    obs::reset();
    let mgr = ShardRouter::in_memory(spec);
    mgr.bulk_load(&mo).unwrap();
    let stats = mgr.sync(now).unwrap();
    let snap = obs::snapshot();
    assert_eq!(
        snap.counter("subcube.bulk_load.facts").unwrap(),
        mo.len() as u64
    );
    assert_eq!(
        snap.counter("subcube.sync.kept").unwrap(),
        stats.kept as u64,
        "sync metrics publish the same locals returned as SyncStats"
    );
    assert_eq!(
        snap.counter("subcube.sync.migrated").unwrap(),
        stats.migrated as u64
    );
    assert_eq!(
        snap.counter("subcube.sync.merged").unwrap(),
        stats.merged as u64
    );
    // Per-source-cube migrations sum to the total.
    let per_cube: u64 = snap
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("subcube.sync.migrated_from."))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(per_cube, stats.migrated as u64);
    for name in ["subcube.sync", "subcube.sync.scan", "subcube.sync.rebuild"] {
        assert_eq!(snap.span(name).unwrap().count, 1, "{name}");
    }

    // --- Phase 3: a no-op sync tick takes the skipped fast path.
    obs::reset();
    mgr.sync(now).unwrap();
    let snap = obs::snapshot();
    assert_eq!(snap.counter("subcube.sync.skipped"), Some(1));
    // The scan phase never ran (its registration survives the reset with
    // a zero count).
    assert_eq!(snap.span("subcube.sync.scan").map_or(0, |s| s.count), 0);

    // --- Phase 4: parallel query. Fan-out covers every cube; one
    // sub-query span per cube (planner-skipped ones included — they
    // record a `skipped` attr) plus the final combine aggregation.
    obs::reset();
    let (tdim, month) = schema.resolve_cat("Time.month").unwrap();
    let mut levels = schema.bottom_granularity().0;
    levels[tdim.index()] = month;
    let q = CubeQuery {
        pred: None,
        mode: SelectMode::Conservative,
        levels,
        approach: AggApproach::Availability,
    };
    let answer = mgr.query(&q, now, true).unwrap();
    assert!(!answer.is_empty());
    let snap = obs::snapshot();
    let n_cubes = mgr.view_set().views()[0].cubes().len() as u64;
    assert_eq!(snap.counter("subcube.query.fanout"), Some(n_cubes));
    assert_eq!(snap.span("subcube.query.subquery").unwrap().count, n_cubes);
    assert_eq!(snap.span("subcube.query").unwrap().count, 1);
    // The planner accounts for every cube: scanned + skipped = fan-out.
    // With no predicate, only empty cubes can be skipped.
    let scanned = snap.counter("plan.cubes_scanned").unwrap();
    let skipped = snap.counter("plan.cubes_skipped").unwrap();
    assert_eq!(scanned + skipped, n_cubes);
    assert_eq!(snap.counter("plan.skip.empty").unwrap_or(0), skipped);
    // aggregate runs once per scanned sub-query + once combining (plus
    // once per skipped cube when SDR_PLAN_VERIFY re-evaluates them).
    let verify_extra = if std::env::var("SDR_PLAN_VERIFY").ok().as_deref() == Some("1") {
        skipped
    } else {
        0
    };
    assert_eq!(
        snap.span("query.aggregate").unwrap().count,
        scanned + 1 + verify_extra
    );
    assert!(snap.counter("query.aggregate.cells_produced").unwrap() >= answer.len() as u64);

    // --- Phase 5: lint. One timed pass per rule, per-code finding
    // counters, and one analysis span per action.
    obs::reset();
    let crossing = "a[Time.quarter, URL.domain] o[Time.quarter <= 1999Q4](O);\n\
                    a[Time.month, URL.domain_grp] o[Time.month <= 1999/12](O)";
    let diags = specdr::lint::lint_source(&schema, crossing, &specdr::lint::LintConfig::default());
    assert_eq!(diags.len(), 1, "the pair crosses: {diags:#?}");
    let snap = obs::snapshot();
    assert_eq!(
        snap.counter("lint.rules_run"),
        Some(7),
        "every rule runs exactly once per lint pass"
    );
    assert_eq!(snap.counter("lint.findings.L004"), Some(1));
    assert_eq!(
        snap.counter("lint.findings.L001"),
        None,
        "no spurious findings"
    );
    assert_eq!(snap.span("lint.analyze_action").unwrap().count, 2);
    for code in specdr::lint::ALL_RULES {
        assert_eq!(
            snap.span(&format!("lint.rule.{code}")).unwrap().count,
            1,
            "rule {code} records one duration per pass"
        );
    }

    // --- Phase 6: disabled registry records nothing. (Registrations
    // survive a reset, so "nothing" means every value stayed zero.)
    obs::set_enabled(false);
    obs::reset();
    let _ = reduce(&mo, &mgr.spec(), now).unwrap();
    let snap = obs::snapshot();
    assert!(
        snap.counters.iter().all(|(_, v)| *v == 0),
        "{:?}",
        snap.counters
    );
    assert!(snap.spans.iter().all(|(_, s)| s.count == 0));
    assert!(snap.histograms.iter().all(|(_, s)| s.count == 0));
    assert!(snap.events.is_empty());

    // --- Phase 7: cross-thread span handoff. The chunk-parallel reduce
    // must produce the same span tree (modulo interleaving) as the
    // single-threaded pass, and every span must close.
    obs::set_enabled(true);
    let attr_u64 = |t: &specdr::obs::TraceSpan, key: &str| -> u64 {
        t.attrs
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or_else(|| panic!("attr {key} missing on {t:?}"))
    };
    let run_with_workers = |workers: &str| {
        std::env::set_var("SDR_REDUCE_WORKERS", workers);
        obs::reset();
        let _ = reduce(&mo, &mgr.spec(), now).unwrap();
        std::env::remove_var("SDR_REDUCE_WORKERS");
        let snap = obs::snapshot();
        assert_eq!(
            obs::open_spans(),
            0,
            "leaked open spans with {workers} workers"
        );
        snap
    };
    let seq = run_with_workers("1");
    let par = run_with_workers("4");
    // Same tree shape: identical distinct span-path sets.
    let path_set = |snap: &specdr::obs::Snapshot| -> std::collections::BTreeSet<String> {
        snap.traces.iter().map(|t| t.path.clone()).collect()
    };
    assert_eq!(path_set(&seq), path_set(&par), "span trees diverge");
    for snap in [&seq, &par] {
        let root = snap
            .traces
            .iter()
            .find(|t| t.name == "reduce.reduce")
            .expect("reduce root span");
        assert_eq!(root.parent, 0);
        let chunks: Vec<_> = snap
            .traces
            .iter()
            .filter(|t| t.name == "reduce.kernel.chunk")
            .collect();
        assert!(!chunks.is_empty());
        for c in &chunks {
            // The handoff context parents every chunk span under the
            // reduce root — even when it closed on a worker thread.
            assert_eq!(c.parent, root.id, "chunk floats as a root: {c:?}");
            assert_eq!(c.path, "reduce.reduce/reduce.kernel.chunk");
        }
        // Chunk slices partition the input exactly.
        let rows: u64 = chunks.iter().map(|c| attr_u64(c, "rows_in")).sum();
        assert_eq!(rows, mo.len() as u64);
    }
    // The parallel pass really crossed threads: one chunk per worker,
    // closed on more than one distinct thread.
    let par_chunks: Vec<_> = par
        .traces
        .iter()
        .filter(|t| t.name == "reduce.kernel.chunk")
        .collect();
    assert_eq!(par_chunks.len(), 4);
    let tids: std::collections::BTreeSet<u64> = par_chunks.iter().map(|c| c.tid).collect();
    assert!(tids.len() > 1, "chunk spans all closed on one thread");
    assert_eq!(
        seq.traces
            .iter()
            .filter(|t| t.name == "reduce.kernel.chunk")
            .count(),
        1
    );
    obs::set_enabled(false);
}
