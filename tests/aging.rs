//! Continuous-aging suite: the incremental scheduler and aging engine
//! (`ReductionSchedule` + `ShardRouter::age`) proven equal to
//! from-scratch reduction at every tick.
//!
//! * Schedule goldens: the precomputed transition days match a
//!   brute-force day-by-day grounding scan for every example spec and
//!   the paper's a1/a2, and `eval_pred` over the paper's facts is
//!   constant between consecutive transition days (the staircase
//!   property the aging engine relies on).
//! * Long-horizon differential: 3+ years of seeded clicks aged through
//!   *every* scheduled transition day equal a from-scratch `sync` on a
//!   fresh manager at each day — by full MO digest and by per-subcube
//!   stats (epochs masked: carried-forward cubes legitimately keep the
//!   epoch they were last rebuilt at).
//! * Tick-partition property: aging in one jump equals aging through
//!   any random subset of the intermediate transition days.

use proptest::prelude::*;
use std::sync::Arc;

use specdr::mdm::calendar::days_from_civil;
use specdr::mdm::{DayNum, Schema};
use specdr::prover::Region;
use specdr::reduce::{DataReductionSpec, ReductionSchedule};
use specdr::spec::{eval_pred, ground_conj, parse_action, parse_actions, to_dnf, Pexp};
use specdr::subcube::{ShardRouter, SubcubeStats};
use specdr::workload::{aging_script, generate, paper_mo, ClickstreamConfig, ACTION_A1, ACTION_A2};

fn spec_from_sources(schema: &Arc<Schema>, srcs: &[String]) -> DataReductionSpec {
    let actions: Vec<_> = srcs
        .iter()
        .map(|s| parse_action(schema, s).unwrap())
        .collect();
    DataReductionSpec::new(Arc::clone(schema), actions).unwrap()
}

fn paper_spec() -> (DataReductionSpec, specdr::mdm::Mo) {
    let (mo, _) = paper_mo();
    let schema = Arc::clone(mo.schema());
    let a1 = parse_action(&schema, ACTION_A1).unwrap();
    let a2 = parse_action(&schema, ACTION_A2).unwrap();
    (DataReductionSpec::new(schema, vec![a1, a2]).unwrap(), mo)
}

/// Sorted rendering of every fact in the warehouse — the full-MO digest
/// the differential assertions compare (row order inside a cube is not
/// observable through queries, so the digest must not depend on it).
fn digest(m: &ShardRouter) -> Vec<String> {
    let whole = m.view_set().to_mo().unwrap();
    let mut r: Vec<String> = whole.facts().map(|f| whole.render_fact(f)).collect();
    r.sort();
    r
}

/// Per-subcube stats with the epoch stamp masked: an aged warehouse
/// carries untouched cubes forward without republishing them, so their
/// `last_epoch` legitimately differs from a fresh manager's.
fn masked_stats(m: &ShardRouter) -> Vec<SubcubeStats> {
    m.view_set().views()[0]
        .cubes()
        .iter()
        .map(|c| {
            let mut s = c.stats().clone();
            s.last_epoch = 0;
            s
        })
        .collect()
}

/// Brute force: a transition day is any day in the horizon where some
/// action's raw conjunct grounding differs from the previous day's.
fn brute_force_transitions(
    schema: &Schema,
    preds: &[&Pexp],
    horizon: (DayNum, DayNum),
) -> Vec<DayNum> {
    let ground_all = |d: DayNum| -> Vec<Vec<Vec<Region>>> {
        preds
            .iter()
            .map(|p| {
                to_dnf(p)
                    .iter()
                    .map(|c| ground_conj(schema, c, d).unwrap())
                    .collect()
            })
            .collect()
    };
    let mut out = Vec::new();
    let mut prev = ground_all(horizon.0);
    for d in (horizon.0 + 1)..=horizon.1 {
        let cur = ground_all(d);
        if cur != prev {
            out.push(d);
        }
        prev = cur;
    }
    out
}

#[test]
fn schedule_matches_brute_force_scan_on_example_specs() {
    let cs = generate(&ClickstreamConfig {
        clicks_per_day: 0,
        ..Default::default()
    });
    for file in [
        "examples/specs/retention.spec",
        "examples/specs/tiered.spec",
        "examples/specs/per-group.spec",
    ] {
        let src = std::fs::read_to_string(file).unwrap();
        let actions = parse_actions(&cs.schema, &src).unwrap();
        let spec = DataReductionSpec::new(Arc::clone(&cs.schema), actions).unwrap();
        let sched = ReductionSchedule::build(&spec).unwrap();
        let preds: Vec<&Pexp> = spec.actions().iter().map(|a| &a.1.pred).collect();
        let brute = brute_force_transitions(&cs.schema, &preds, sched.horizon());
        assert_eq!(sched.transition_days(), &brute[..], "{file}");
        assert!(!sched.is_static(), "{file} has NOW-relative windows");
    }
}

#[test]
fn schedule_matches_brute_force_scan_on_paper_spec() {
    let (spec, _) = paper_spec();
    let sched = ReductionSchedule::build(&spec).unwrap();
    let preds: Vec<&Pexp> = spec.actions().iter().map(|a| &a.1.pred).collect();
    let brute = brute_force_transitions(spec.schema(), &preds, sched.horizon());
    assert_eq!(sched.transition_days(), &brute[..]);
    assert!(!brute.is_empty());
}

#[test]
fn eval_pred_is_constant_between_transition_days() {
    // The staircase property the aging engine relies on: over the whole
    // horizon, any day where some fact's predicate evaluation flips is a
    // scheduled transition day.
    let (spec, mo) = paper_spec();
    let sched = ReductionSchedule::build(&spec).unwrap();
    let days: std::collections::BTreeSet<DayNum> =
        sched.transition_days().iter().copied().collect();
    let (h0, h1) = sched.horizon();
    let coords: Vec<Vec<specdr::mdm::DimValue>> = mo.facts().map(|f| mo.coords(f)).collect();
    let eval_all = |d: DayNum| -> Vec<bool> {
        let mut out = Vec::new();
        for a in spec.actions() {
            for c in &coords {
                out.push(eval_pred(mo.schema(), &a.1.pred, c, d).unwrap());
            }
        }
        out
    };
    let mut prev = eval_all(h0);
    for d in (h0 + 1)..=h1 {
        let cur = eval_all(d);
        if cur != prev {
            assert!(days.contains(&d), "eval flipped at unscheduled day {d}");
        }
        prev = cur;
    }
}

#[test]
fn schedule_boundary_cases() {
    let cs = generate(&ClickstreamConfig {
        clicks_per_day: 0,
        ..Default::default()
    });
    // A static window (no NOW): empty schedule.
    let spec = spec_from_sources(
        &cs.schema,
        &["p(a[Time.month, URL.domain] o[Time.month <= 1999/6](O))".into()],
    );
    let sched = ReductionSchedule::build(&spec).unwrap();
    assert!(sched.is_static());
    assert!(sched.transition_days().is_empty());
    assert_eq!(sched.next_transition(sched.horizon().0), None);

    // A window starting exactly at NOW (offset zero): transitions are
    // exactly the month boundaries, starting with the first boundary
    // strictly inside the horizon.
    let spec = spec_from_sources(
        &cs.schema,
        &["p(a[Time.month, URL.domain] o[Time.month <= NOW](O))".into()],
    );
    let sched = ReductionSchedule::build(&spec).unwrap();
    let (h0, h1) = sched.horizon();
    let preds: Vec<&Pexp> = spec.actions().iter().map(|a| &a.1.pred).collect();
    let brute = brute_force_transitions(&cs.schema, &preds, (h0, h1));
    assert_eq!(sched.transition_days(), &brute[..]);
    let first = sched.next_transition(h0).unwrap();
    let (_, _, d) = specdr::mdm::calendar::civil_from_days(first);
    assert_eq!(d, 1, "transitions land on month starts, got day {first}");

    // Past the horizon: nothing left.
    assert_eq!(sched.next_transition(h1), None);
    assert!(sched.transitions_between(h1, h1 + 1000).is_empty());
    // The half-open window (after, until]: a tick at `after` itself is
    // excluded, the one at `until` included.
    let t = sched.next_transition(h0).unwrap();
    assert_eq!(sched.transitions_between(t, t), Vec::<DayNum>::new());
    assert_eq!(sched.transitions_between(t - 1, t), vec![t]);
}

/// The tentpole guarantee, long horizon: a warehouse aged through every
/// scheduled transition day equals a from-scratch synchronization at
/// each one, over 3+ years of seeded clicks and seeded random policies.
fn differential_run(seed: u64) {
    let script = aging_script(seed);
    let schema = Arc::clone(&script.cs.schema);
    let spec = spec_from_sources(&schema, &script.actions);
    let aged = ShardRouter::in_memory(spec.clone());
    aged.bulk_load(&script.cs.mo).unwrap();
    aged.sync(script.data_end).unwrap();

    let sched = ReductionSchedule::build(&spec).unwrap();
    let ticks = sched.transitions_between(script.data_end, script.horizon_end);
    assert!(
        ticks.len() >= 3,
        "seed {seed}: degenerate schedule ({} ticks)",
        ticks.len()
    );
    let mut skipped_total = 0usize;
    for &t in &ticks {
        let stats = aged.age(t).unwrap();
        assert_eq!(stats.ticks, 1, "seed {seed}: one transition per step");
        skipped_total += stats.cubes_skipped;
        let fresh = ShardRouter::in_memory(spec.clone());
        fresh.bulk_load(&script.cs.mo).unwrap();
        fresh.sync(t).unwrap();
        assert_eq!(
            digest(&aged),
            digest(&fresh),
            "seed {seed}: digest divergence at tick {t}"
        );
        assert_eq!(
            masked_stats(&aged),
            masked_stats(&fresh),
            "seed {seed}: stats divergence at tick {t}"
        );
    }
    // Incrementality was real: untouched cubes were carried forward.
    assert!(skipped_total > 0, "seed {seed}: no cube ever skipped");
    aged.view_set().views()[0].verify_stats().unwrap();
}

#[test]
fn long_horizon_differential_seed_1() {
    differential_run(1);
}

#[test]
fn long_horizon_differential_seed_2() {
    differential_run(2);
}

#[test]
fn long_horizon_differential_seed_3() {
    differential_run(3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tick partitioning: aging straight to a target day equals aging
    /// through any subset of the intermediate transition days first
    /// (one jump == k sub-steps), and both equal a from-scratch sync.
    #[test]
    fn one_jump_equals_random_tick_partition(mask in any::<u64>(), stop_at in 4usize..40) {
        let (spec, mo) = paper_spec();
        let baseline = days_from_civil(2000, 1, 5);
        let sched = ReductionSchedule::build(&spec).unwrap();
        let all = sched.transitions_between(baseline, sched.horizon().1);
        if all.is_empty() {
            return Ok(());
        }
        let target = all[stop_at.min(all.len() - 1)];
        let stops: Vec<DayNum> = all
            .iter()
            .enumerate()
            .filter(|&(i, &t)| t < target && mask & (1 << (i % 64)) != 0)
            .map(|(_, &t)| t)
            .collect();

        let jump = ShardRouter::in_memory(spec.clone());
        jump.bulk_load(&mo).unwrap();
        jump.sync(baseline).unwrap();
        jump.age(target).unwrap();

        let stepped = ShardRouter::in_memory(spec.clone());
        stepped.bulk_load(&mo).unwrap();
        stepped.sync(baseline).unwrap();
        for &t in &stops {
            stepped.age(t).unwrap();
        }
        stepped.age(target).unwrap();
        prop_assert_eq!(digest(&jump), digest(&stepped));
        prop_assert_eq!(masked_stats(&jump), masked_stats(&stepped));

        let fresh = ShardRouter::in_memory(spec);
        fresh.bulk_load(&mo).unwrap();
        fresh.sync(target).unwrap();
        prop_assert_eq!(digest(&jump), digest(&fresh));
    }
}
