//! Figure-exact integration tests: every worked example of the paper is
//! reproduced end to end through the public facade (`specdr`), with the
//! exact fact sets and measure values the figures show.
//!
//! Every scenario additionally round-trips through the durability layer —
//! checkpoint, simulated crash tearing the write-ahead-log tail, recovery
//! — before its assertions run, so the figures also prove that a
//! warehouse that died and came back reproduces the paper exactly.

use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use specdr::mdm::calendar::days_from_civil;
use specdr::mdm::{DayNum, FactId, MeasureId, Mo};
use specdr::query::{aggregate, project, AggApproach};
use specdr::reduce::{DataReductionSpec, ReduceError};
use specdr::spec::parse_action;
use specdr::subcube::ShardRouter;
use specdr::workload::{paper_mo, snapshot_days, ACTION_A1, ACTION_A2};

fn sorted_rows(mo: &Mo) -> Vec<String> {
    let mut v: Vec<String> = mo.facts().map(|f| mo.render_fact(f)).collect();
    v.sort();
    v
}

fn paper_setup() -> (Mo, DataReductionSpec) {
    let (mo, _) = paper_mo();
    let schema = Arc::clone(mo.schema());
    let a1 = parse_action(&schema, ACTION_A1).unwrap();
    let a2 = parse_action(&schema, ACTION_A2).unwrap();
    (mo, DataReductionSpec::new(schema, vec![a1, a2]).unwrap())
}

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Loads `mo` into a durable warehouse (reducing at `now` when given),
/// publishes a checkpoint, crashes mid-append — a torn record lands on
/// the fresh log — and recovers. Returns the recovered warehouse's whole
/// content; by Figure 7's invariant this equals `reduce(mo, spec, now)`.
fn recovered(mo: &Mo, spec: &DataReductionSpec, now: Option<DayNum>) -> Mo {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("specdr-fig-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let w = ShardRouter::create(spec.clone(), &dir, 1).unwrap();
    w.bulk_load(mo).unwrap();
    if let Some(t) = now {
        w.sync(t).unwrap();
    }
    let epoch = w.checkpoint().unwrap();
    drop(w);
    // The crash: a half-written record (claims 42 bytes, delivers 2).
    let wal = dir.join(format!("shard-000/wal-{epoch:06}.log"));
    let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
    f.write_all(&[42, 0, 0, 0, 0xDE, 0xAD]).unwrap();
    drop(f);
    let (rec, report) = ShardRouter::recover(spec.clone(), &dir).unwrap();
    assert_eq!(report.epoch, epoch);
    assert_eq!(report.replayed, 0);
    assert_eq!(report.dropped_bytes, 6);
    let out = rec.view_set().to_mo().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    out
}

/// Table 2 / Figure 1: the example data, loaded and rendered faithfully.
#[test]
fn table2_figure1_example_mo() {
    let (mo, spec) = paper_setup();
    // Un-synchronized load: the recovered warehouse holds the example
    // data verbatim.
    assert_eq!(sorted_rows(&recovered(&mo, &spec, None)), sorted_rows(&mo));
    assert_eq!(
        sorted_rows(&mo),
        vec![
            "fact(1999/11/23, http://www.amazon.com/exec/... | 1, 677, 2, 34000)",
            "fact(1999/12/31, http://www.amazon.com/exec/... | 1, 12, 1, 34000)",
            "fact(1999/12/4, http://www.cnn.com/ | 1, 154, 2, 42000)",
            "fact(1999/12/4, http://www.cnn.com/health | 1, 2335, 5, 52000)",
            "fact(2000/1/20, http://www.cc.gatech.edu/ | 1, 32, 1, 12000)",
            "fact(2000/1/4, http://www.cnn.com/ | 1, 654, 4, 47000)",
            "fact(2000/1/4, http://www.cnn.com/health | 1, 301, 6, 52000)",
        ]
    );
    // The schema shapes of Figure 1: non-linear Time, linear URL.
    let time_graph = mo.schema().dim(specdr::mdm::DimId(0)).graph();
    assert!(!time_graph.is_linear());
    let url_graph = mo.schema().dim(specdr::mdm::DimId(1)).graph();
    assert!(url_graph.is_linear());
}

/// Figure 2: {a1} alone violates Growing (fact_0 would be "reclaimed"
/// between 2000/10 and 2000/11); adding a2 makes the situation valid.
#[test]
fn figure2_growing_violation_and_fix() {
    let (mo, _) = paper_mo();
    let schema = Arc::clone(mo.schema());
    let a1 = parse_action(&schema, ACTION_A1).unwrap();
    let err = DataReductionSpec::new(Arc::clone(&schema), vec![a1.clone()]).unwrap_err();
    assert!(matches!(err, ReduceError::NotGrowing { .. }));
    let a2 = parse_action(&schema, ACTION_A2).unwrap();
    let spec = DataReductionSpec::new(schema, vec![a1, a2]).unwrap();
    // The valid situation of Figure 2's bottom box at time 2000/11:
    // fact_0+fact_3 → fact_03, fact_12 at quarter level, fact_45 at month.
    let r = recovered(&mo, &spec, Some(days_from_civil(2000, 11, 15)));
    assert!(sorted_rows(&r).contains(&"fact(1999Q4, amazon.com | 2, 689, 3, 68000)".to_string()));
}

/// Figure 3: the three snapshots, byte for byte.
#[test]
fn figure3_three_snapshots() {
    let (mo, spec) = paper_setup();
    let [t1, t2, t3] = snapshot_days();
    assert_eq!(
        sorted_rows(&recovered(&mo, &spec, Some(t1))),
        sorted_rows(&mo)
    );
    assert_eq!(
        sorted_rows(&recovered(&mo, &spec, Some(t2))),
        vec![
            "fact(1999/11, amazon.com | 1, 677, 2, 34000)",
            "fact(1999/12, amazon.com | 1, 12, 1, 34000)",
            "fact(1999/12, cnn.com | 2, 2489, 7, 94000)",
            "fact(2000/1/20, http://www.cc.gatech.edu/ | 1, 32, 1, 12000)",
            "fact(2000/1/4, http://www.cnn.com/ | 1, 654, 4, 47000)",
            "fact(2000/1/4, http://www.cnn.com/health | 1, 301, 6, 52000)",
        ]
    );
    assert_eq!(
        sorted_rows(&recovered(&mo, &spec, Some(t3))),
        vec![
            "fact(1999Q4, amazon.com | 2, 689, 3, 68000)",
            "fact(1999Q4, cnn.com | 2, 2489, 7, 94000)",
            "fact(2000/1, cnn.com | 2, 955, 10, 99000)",
            "fact(2000/1/20, http://www.cc.gatech.edu/ | 1, 32, 1, 12000)",
        ]
    );
}

/// Figure 4: π[URL][Number_of, Dwell_time] of the final snapshot.
#[test]
fn figure4_projection() {
    let (mo, spec) = paper_setup();
    let red = recovered(&mo, &spec, Some(days_from_civil(2000, 11, 5)));
    let p = project(&red, &["URL"], &["Number_of", "Dwell_time"]).unwrap();
    assert_eq!(
        sorted_rows(&p),
        vec![
            "fact(amazon.com | 2, 689)",
            "fact(cnn.com | 2, 2489)",
            "fact(cnn.com | 2, 955)",
            "fact(http://www.cc.gatech.edu/ | 1, 32)",
        ]
    );
}

/// Figure 5: α[Time.month, URL.domain] with the availability approach —
/// fact_03 and fact_12 stay at quarter, fact_45 and fact_6 land at month.
#[test]
fn figure5_aggregation() {
    let (mo, spec) = paper_setup();
    let red = recovered(&mo, &spec, Some(days_from_civil(2000, 11, 5)));
    let a = aggregate(
        &red,
        &["Time.month", "URL.domain"],
        AggApproach::Availability,
    )
    .unwrap();
    assert_eq!(
        sorted_rows(&a),
        vec![
            "fact(1999Q4, amazon.com | 2, 689, 3, 68000)",
            "fact(1999Q4, cnn.com | 2, 2489, 7, 94000)",
            "fact(2000/1, cnn.com | 2, 955, 10, 99000)",
            "fact(2000/1, gatech.edu | 1, 32, 1, 12000)",
        ]
    );
}

/// Section 4.2's worked Cell example: fact_1 at 2000/11/5 lands in the
/// cell (1999Q4, cnn.com) via action a2.
#[test]
fn section42_cell_example() {
    let (mo, spec) = paper_setup();
    // The cell is computed on the crash-recovered copy of the example
    // data (an un-synchronized round-trip preserves fact order).
    let mo = recovered(&mo, &spec, None);
    let c = specdr::reduce::cell(&mo, &spec, FactId(1), days_from_civil(2000, 11, 5)).unwrap();
    let s = spec.schema();
    assert_eq!(s.dim(specdr::mdm::DimId(0)).render(c.coords[0]), "1999Q4");
    assert_eq!(s.dim(specdr::mdm::DimId(1)).render(c.coords[1]), "cnn.com");
}

/// Reduction never loses SUM/COUNT content at any snapshot.
#[test]
fn reduction_preserves_totals_at_all_snapshots() {
    let (mo, spec) = paper_setup();
    for t in snapshot_days() {
        let r = recovered(&mo, &spec, Some(t));
        for j in 0..mo.schema().n_measures() {
            let m = MeasureId(j as u16);
            let before: i64 = mo.facts().map(|f| mo.measure(f, m)).sum();
            let after: i64 = r.facts().map(|f| r.measure(f, m)).sum();
            assert_eq!(before, after);
        }
    }
}
