//! Experiment E10: vectorized kernels vs. the naive row-at-a-time paths.
//!
//! Measures the four operators that gained compiled/packed kernels in the
//! vectorized-execution pass — selection, aggregation, reduction, and
//! subcube synchronization — against their retained naive reference
//! implementations, at three warehouse scales (~10k / ~100k / ~1M facts).
//!
//! This target uses a hand-rolled harness (`harness = false`, no
//! criterion): each (op, scale) pair is timed over an odd number of runs
//! and the median wall-clock ns is reported, because the acceptance
//! criterion is a median-speedup ratio and we also want to emit a single
//! machine-readable `BENCH_pr3.json` at the repo root. Before any timing,
//! kernel and naive outputs are digest-compared — a mismatch aborts the
//! bench, so a reported speedup can never come from a wrong answer.

use std::hint::black_box;
use std::time::Instant;

use sdr_bench::{
    bench_warehouse, mo_digest, mos_digest, sync_naive_replay, view_digest, BenchWarehouse,
};
use sdr_mdm::time_cat as tc;
use sdr_query::{
    aggregate_ids, aggregate_ids_naive, select, select_naive, AggApproach, SelectMode,
};
use sdr_reduce::{reduce, reduce_naive};
use sdr_spec::parse_pexp;
use sdr_subcube::ShardRouter;

/// Median of `runs` timed executions of `f`, in nanoseconds.
fn median_ns(runs: usize, mut f: impl FnMut()) -> u64 {
    let mut samples: Vec<u64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

struct OpResult {
    op: &'static str,
    kernel_ns: u64,
    naive_ns: u64,
}

impl OpResult {
    fn speedup(&self) -> f64 {
        self.naive_ns as f64 / self.kernel_ns.max(1) as f64
    }
}

fn run_scale(label: &str, w: &BenchWarehouse, runs: usize) -> Vec<OpResult> {
    let raw = &w.cs.mo;
    let schema = raw.schema();
    let grp = w.cs.url_cats.domain_grp;
    let pred = parse_pexp(schema, "Time.quarter <= 2000Q4 AND URL.domain_grp = .com").unwrap();
    let levels = [tc::QUARTER, grp];
    let mut out = Vec::new();

    // Selection: compiled predicate + per-cell memo vs. per-fact DNF walk.
    let k = select(raw, &pred, w.mid, SelectMode::Conservative).unwrap();
    let n = select_naive(raw, &pred, w.mid, SelectMode::Conservative).unwrap();
    assert_eq!(mo_digest(&k), mo_digest(&n), "select digest mismatch");
    out.push(OpResult {
        op: "select",
        kernel_ns: median_ns(runs, || {
            black_box(select(raw, &pred, w.mid, SelectMode::Conservative).unwrap());
        }),
        naive_ns: median_ns(runs, || {
            black_box(select_naive(raw, &pred, w.mid, SelectMode::Conservative).unwrap());
        }),
    });

    // Aggregation: packed-key grouping vs. BTreeMap-per-fact.
    let k = aggregate_ids(raw, &levels, AggApproach::Availability).unwrap();
    let n = aggregate_ids_naive(raw, &levels, AggApproach::Availability).unwrap();
    assert_eq!(mo_digest(&k), mo_digest(&n), "aggregate digest mismatch");
    out.push(OpResult {
        op: "aggregate",
        kernel_ns: median_ns(runs, || {
            black_box(aggregate_ids(raw, &levels, AggApproach::Availability).unwrap());
        }),
        naive_ns: median_ns(runs, || {
            black_box(aggregate_ids_naive(raw, &levels, AggApproach::Availability).unwrap());
        }),
    });

    // Reduction: memoized compiled cells + chunk-parallel scan vs. the
    // per-fact `cell_for` walk.
    let k = reduce(raw, &w.spec, w.mid).unwrap();
    let n = reduce_naive(raw, &w.spec, w.mid).unwrap();
    assert_eq!(mo_digest(&k), mo_digest(&n), "reduce digest mismatch");
    out.push(OpResult {
        op: "reduce",
        kernel_ns: median_ns(runs, || {
            black_box(reduce(raw, &w.spec, w.mid).unwrap());
        }),
        naive_ns: median_ns(runs, || {
            black_box(reduce_naive(raw, &w.spec, w.mid).unwrap());
        }),
    });

    // Synchronization: one memoized cell resolution per fact vs. the
    // pre-kernel scan's two independent resolutions. The kernel side
    // re-loads a fresh manager each run (outside the timer) because
    // `sync` consumes the dirty state.
    let m = ShardRouter::in_memory(w.spec.clone());
    m.bulk_load(raw).unwrap();
    let naive_cubes = sync_naive_replay(&m.view_set().views()[0], &w.spec, w.mid).unwrap();
    m.sync(w.mid).unwrap();
    assert_eq!(
        view_digest(&m.view_set().views()[0]),
        mos_digest(&naive_cubes),
        "sync digest mismatch"
    );
    // `sync` consumes the dirty state, so the kernel side rebuilds a
    // fresh manager per run with the bulk load outside the clock.
    let mut kernel_samples: Vec<u64> = (0..runs)
        .map(|_| {
            let m = ShardRouter::in_memory(w.spec.clone());
            m.bulk_load(raw).unwrap();
            let t = Instant::now();
            black_box(m.sync(w.mid).unwrap());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    kernel_samples.sort_unstable();
    let m = ShardRouter::in_memory(w.spec.clone());
    m.bulk_load(raw).unwrap();
    out.push(OpResult {
        op: "sync",
        kernel_ns: kernel_samples[kernel_samples.len() / 2],
        naive_ns: median_ns(runs, || {
            black_box(sync_naive_replay(&m.view_set().views()[0], &w.spec, w.mid).unwrap());
        }),
    });

    eprintln!("-- scale {label} ({} facts, {runs} runs)", raw.len());
    for r in &out {
        eprintln!(
            "   {:9} kernel {:>12} ns   naive {:>12} ns   speedup {:.2}x",
            r.op,
            r.kernel_ns,
            r.naive_ns,
            r.speedup()
        );
    }
    out
}

fn main() {
    // The digest asserts need identical provenance; metrics stay off so
    // obs overhead doesn't skew either side.
    sdr_obs::set_enabled(false);
    let scales: &[(&str, u32, usize, usize)] = &[
        ("10k", 12, 30, 9),
        ("100k", 24, 150, 5),
        ("1M", 36, 1000, 3),
    ];
    let mut json = String::from(
        "{\n  \"experiment\": \"E10\",\n  \"unit\": \"median_ns\",\n  \"scales\": [\n",
    );
    for (i, &(label, months, cpd, runs)) in scales.iter().enumerate() {
        let w = bench_warehouse(months, cpd);
        let results = run_scale(label, &w, runs);
        json.push_str(&format!(
            "    {{\"label\": \"{label}\", \"facts\": {}, \"ops\": [\n",
            w.cs.mo.len()
        ));
        for (j, r) in results.iter().enumerate() {
            json.push_str(&format!(
                "      {{\"op\": \"{}\", \"kernel_ns\": {}, \"naive_ns\": {}, \"speedup\": {:.2}}}{}\n",
                r.op,
                r.kernel_ns,
                r.naive_ns,
                r.speedup(),
                if j + 1 < results.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 < scales.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = std::env::var("SDR_BENCH_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr3.json").into());
    std::fs::write(&path, &json).expect("write bench json");
    eprintln!("wrote {path}");
}
