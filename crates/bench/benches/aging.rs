//! Experiment E13: continuous aging — the incremental scheduler-driven
//! `ShardRouter::age` vs. a from-scratch synchronization, at steady
//! state.
//!
//! Setup per scale (~100k / ~1M facts): load the standard bench
//! warehouse, synchronize to the last data day (the steady-state
//! baseline), then walk one year of the spec's scheduled transition
//! days. Two timings per tick:
//!
//! * `age_tick_incremental` — advancing the *same* live warehouse by
//!   one tick (aging is monotone, so the per-tick samples come from one
//!   pass over the year; the reported number is their median);
//! * `sync_from_scratch`    — a freshly loaded manager fully
//!   synchronized to that same tick day (the load is outside the
//!   clock; this is what a deployment without incremental aging pays).
//!
//! The aged warehouse is digest-compared against the final from-scratch
//! sync before any number is reported — a speedup can never come from a
//! different answer. Output: `BENCH_pr7.json` at the repo root, with
//! the per-scale steady-state speedup and the total skipped-cube count
//! (both gates: ≥5× at 1M, skipped > 0).

use std::hint::black_box;
use std::time::Instant;

use sdr_bench::{bench_warehouse, mo_digest, BenchWarehouse};
use sdr_mdm::calendar::days_from_civil;
use sdr_reduce::ReductionSchedule;
use sdr_subcube::ShardRouter;

/// The last day `bench_warehouse(months, _)` generated clicks for —
/// the steady-state baseline the aged warehouse starts from.
fn data_end(months: u32) -> i32 {
    let end_year = 1999 + (months / 12) as i32;
    let end_month = months % 12;
    let (ey, em) = if end_month == 0 {
        (end_year - 1, 12)
    } else {
        (end_year, end_month)
    };
    days_from_civil(ey, em, 28)
}

fn loaded_manager(w: &BenchWarehouse) -> ShardRouter {
    let m = ShardRouter::in_memory(w.spec.clone());
    m.bulk_load(&w.cs.mo).unwrap();
    m
}

fn median(mut ns: Vec<u64>) -> u64 {
    ns.sort_unstable();
    ns[ns.len() / 2]
}

struct ScaleResult {
    facts: u64,
    ticks: usize,
    skipped: usize,
    age_tick_ns: u64,
    sync_ns: u64,
}

fn run_scale(label: &str, months: u32, clicks_per_day: usize) -> ScaleResult {
    let w = bench_warehouse(months, clicks_per_day);
    let baseline = data_end(months);
    let sched = ReductionSchedule::build(&w.spec).unwrap();
    let ticks = sched.transitions_between(baseline, baseline + 366);
    assert!(ticks.len() >= 6, "degenerate schedule: {ticks:?}");

    // One live warehouse advanced tick by tick; per-tick wall clock.
    let aged = loaded_manager(&w);
    aged.sync(baseline).unwrap();
    let mut age_samples = Vec::new();
    let mut skipped = 0usize;
    for &t in &ticks {
        let t0 = Instant::now();
        let stats = aged.age(t).unwrap();
        age_samples.push(t0.elapsed().as_nanos() as u64);
        skipped += stats.cubes_skipped;
    }

    // From-scratch reference at every tick day; load outside the clock.
    let mut sync_samples = Vec::new();
    let mut last_fresh = None;
    for &t in &ticks {
        let fresh = loaded_manager(&w);
        let t0 = Instant::now();
        fresh.sync(t).unwrap();
        sync_samples.push(t0.elapsed().as_nanos() as u64);
        last_fresh = Some(fresh);
    }

    // Same final answer, or the bench aborts.
    let fresh = last_fresh.unwrap();
    assert_eq!(
        mo_digest(&aged.view_set().to_mo().unwrap()),
        mo_digest(&fresh.view_set().to_mo().unwrap()),
        "incremental aging diverged from from-scratch sync"
    );
    black_box(&aged);

    let r = ScaleResult {
        facts: w.cs.mo.len() as u64,
        ticks: ticks.len(),
        skipped,
        age_tick_ns: median(age_samples),
        sync_ns: median(sync_samples),
    };
    eprintln!(
        "-- scale {label} ({} facts, {} ticks over one year)",
        r.facts, r.ticks
    );
    eprintln!("   age_tick_incremental {:>14} ns", r.age_tick_ns);
    eprintln!("   sync_from_scratch    {:>14} ns", r.sync_ns);
    eprintln!(
        "   speedup {:.1}x, cubes skipped {}",
        r.sync_ns as f64 / r.age_tick_ns.max(1) as f64,
        r.skipped
    );
    r
}

fn main() {
    sdr_obs::set_enabled(false);
    let scales: &[(&str, u32, usize)] = &[("100k", 24, 150), ("1M", 36, 1000)];
    let mut json = String::from(
        "{\n  \"experiment\": \"E13\",\n  \"unit\": \"median_ns\",\n  \"scales\": [\n",
    );
    for (i, &(label, months, cpd)) in scales.iter().enumerate() {
        let r = run_scale(label, months, cpd);
        let speedup = r.sync_ns as f64 / r.age_tick_ns.max(1) as f64;
        assert!(
            r.skipped > 0,
            "{label}: no subcube was ever carried forward"
        );
        json.push_str(&format!(
            "    {{\"label\": \"{label}\", \"facts\": {}, \"ticks\": {}, \
             \"cubes_skipped\": {}, \"speedup\": {speedup:.1}, \"ops\": [\n",
            r.facts, r.ticks, r.skipped
        ));
        json.push_str(&format!(
            "      {{\"op\": \"age_tick_incremental\", \"ns\": {}}},\n",
            r.age_tick_ns
        ));
        json.push_str(&format!(
            "      {{\"op\": \"sync_from_scratch\", \"ns\": {}}}\n",
            r.sync_ns
        ));
        json.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 < scales.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = std::env::var("SDR_BENCH_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr7.json").into());
    std::fs::write(&path, &json).expect("write bench json");
    eprintln!("wrote {path}");
}
