//! Experiment E12: introspection overhead — `explain`/`profile` vs. the
//! plain operations they wrap, with the registry enabled vs. disabled.
//!
//! Four comparisons per scale (~100k / ~1M facts):
//!
//! * `query_plain_disabled` — the baseline: a parallel roll-up with the
//!   registry off (the production configuration);
//! * `query_plain_enabled`  — the same query with spans/counters
//!   recording but no report assembly (what a `--metrics` run pays);
//! * `explain_query`        — the full introspection engine: recorded
//!   run + DAG/stat/phase report assembly;
//! * `sync_query_plain` / `profile` — the same pair for a whole
//!   sync-then-query pass (managers rebuilt outside the clock, since
//!   `sync` consumes the dirty state).
//!
//! Hand-rolled harness like E10: odd run counts, median wall-clock ns,
//! one machine-readable `BENCH_pr6.json` at the repo root. Answers are
//! digest-compared between the plain and introspected runs first — a
//! reported overhead can never come from a different answer.

use std::hint::black_box;
use std::time::Instant;

use sdr_bench::{bench_warehouse, mo_digest, BenchWarehouse};
use sdr_mdm::time_cat as tc;
use sdr_query::{AggApproach, SelectMode};
use sdr_subcube::{CubeQuery, ShardRouter};
use specdr::introspect::{explain_query, profile};

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

struct Row {
    op: &'static str,
    ns: u64,
}

/// The measured query: a month × domain roll-up touching every cube.
fn roll_up(w: &BenchWarehouse) -> CubeQuery {
    CubeQuery {
        pred: None,
        mode: SelectMode::Conservative,
        levels: vec![tc::MONTH, w.cs.url_cats.domain],
        approach: AggApproach::Availability,
    }
}

fn loaded_manager(w: &BenchWarehouse) -> ShardRouter {
    let m = ShardRouter::in_memory(w.spec.clone());
    m.bulk_load(&w.cs.mo).unwrap();
    m
}

fn run_scale(label: &str, w: &BenchWarehouse, runs: usize) -> Vec<Row> {
    let q = roll_up(w);
    let now = w.mid;
    let m = loaded_manager(w);
    m.sync(now).unwrap();

    // Same answer with and without introspection, or the bench aborts.
    sdr_obs::set_enabled(false);
    let plain = m.query(&q, now, true).unwrap();
    let (explained, report) = explain_query(&m, &q, now, true).unwrap();
    assert_eq!(
        mo_digest(&plain),
        mo_digest(&explained),
        "explain changed the answer"
    );
    assert_eq!(report.result_rows, plain.len() as u64);

    let mut out = Vec::new();
    sdr_obs::set_enabled(false);
    out.push(Row {
        op: "query_plain_disabled",
        ns: median_ns(runs, || {
            black_box(m.query(&q, now, true).unwrap());
        }),
    });
    sdr_obs::set_enabled(true);
    sdr_obs::reset();
    out.push(Row {
        op: "query_plain_enabled",
        ns: median_ns(runs, || {
            black_box(m.query(&q, now, true).unwrap());
        }),
    });
    sdr_obs::set_enabled(false);
    out.push(Row {
        op: "explain_query",
        ns: median_ns(runs, || {
            black_box(explain_query(&m, &q, now, true).unwrap());
        }),
    });

    // Whole-pass pair: manager rebuilt per run outside the clock.
    let timed_pass = |runs: usize, f: &dyn Fn(&ShardRouter)| -> u64 {
        let mut samples: Vec<u64> = (0..runs)
            .map(|_| {
                let m = loaded_manager(w);
                let t = Instant::now();
                f(&m);
                t.elapsed().as_nanos() as u64
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    };
    sdr_obs::set_enabled(false);
    out.push(Row {
        op: "sync_query_plain_disabled",
        ns: timed_pass(runs, &|m| {
            m.sync(now).unwrap();
            black_box(m.query(&q, now, true).unwrap());
        }),
    });
    out.push(Row {
        op: "profile",
        ns: timed_pass(runs, &|m| {
            black_box(profile(m, &q, now, true).unwrap());
        }),
    });

    eprintln!("-- scale {label} ({} facts, {runs} runs)", w.cs.mo.len());
    for r in &out {
        eprintln!("   {:26} {:>14} ns", r.op, r.ns);
    }
    out
}

fn ns_of(rows: &[Row], op: &str) -> u64 {
    rows.iter().find(|r| r.op == op).unwrap().ns.max(1)
}

fn main() {
    sdr_obs::set_enabled(false);
    let scales: &[(&str, u32, usize, usize)] = &[("100k", 24, 150, 5), ("1M", 36, 1000, 3)];
    let mut json = String::from(
        "{\n  \"experiment\": \"E12\",\n  \"unit\": \"median_ns\",\n  \"scales\": [\n",
    );
    for (i, &(label, months, cpd, runs)) in scales.iter().enumerate() {
        let w = bench_warehouse(months, cpd);
        let rows = run_scale(label, &w, runs);
        let explain_overhead =
            ns_of(&rows, "explain_query") as f64 / ns_of(&rows, "query_plain_disabled") as f64;
        let profile_overhead =
            ns_of(&rows, "profile") as f64 / ns_of(&rows, "sync_query_plain_disabled") as f64;
        json.push_str(&format!(
            "    {{\"label\": \"{label}\", \"facts\": {}, \"explain_overhead\": {explain_overhead:.2}, \
             \"profile_overhead\": {profile_overhead:.2}, \"ops\": [\n",
            w.cs.mo.len()
        ));
        for (j, r) in rows.iter().enumerate() {
            json.push_str(&format!(
                "      {{\"op\": \"{}\", \"ns\": {}}}{}\n",
                r.op,
                r.ns,
                if j + 1 < rows.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 < scales.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = std::env::var("SDR_BENCH_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr6.json").into());
    std::fs::write(&path, &json).expect("write bench json");
    eprintln!("wrote {path}");
}
