//! Seeded benchmark inputs: one synthetic click-stream, split into the
//! base load and the later days a workload feeds in one at a time.

use specdr::mdm::calendar::days_from_civil;
use specdr::mdm::{time_cat, DayNum, Mo, TimeValue};
use specdr::reduce::DataReductionSpec;
use specdr::workload::{generate, ClickstreamConfig};
use std::ops::Range;

/// Clicks per simulated day.
pub const CLICKS_PER_DAY: usize = 1000;

/// The last day of the base load (1999-01 to 2001-12, ~1.09M clicks).
pub fn base_end() -> DayNum {
    days_from_civil(2001, 12, 31)
}

/// The generated input of one run.
pub struct Data {
    /// Every generated click, in day order.
    pub clicks: Mo,
    /// Rows of the base load.
    pub base: Range<usize>,
    /// The days after the base load, each with its rows.
    pub tail: Vec<(DayNum, Range<usize>)>,
    /// The 6/36-month retention policy.
    pub spec: DataReductionSpec,
}

impl Data {
    /// Generates the base load plus `tail_days` later days from `seed`:
    /// 4 groups x 8 domains x 64 URLs at [`CLICKS_PER_DAY`].
    pub fn generate(seed: u64, tail_days: u32) -> Data {
        let end = base_end() + tail_days as DayNum;
        let (ey, em, ed) = specdr::mdm::calendar::civil_from_days(end);
        let cs = generate(&ClickstreamConfig {
            seed,
            n_domain_grps: 4,
            domains_per_grp: 8,
            urls_per_domain: 64,
            start: (1999, 1, 1),
            end: (ey, em, ed),
            clicks_per_day: CLICKS_PER_DAY,
            ..Default::default()
        });
        let spec = sdr_bench::policy_spec(&cs.schema);
        let clicks = cs.mo;
        // The generator emits clicks in day order, so every day is one
        // contiguous row range.
        let mut days: Vec<(DayNum, Range<usize>)> = Vec::new();
        for f in clicks.facts() {
            let day = fact_day(&clicks, f);
            let i = f.index();
            match days.last_mut() {
                Some((d, r)) if *d == day => r.end = i + 1,
                _ => days.push((day, i..i + 1)),
            }
        }
        let split = days.partition_point(|(d, _)| *d <= base_end());
        let tail = days.split_off(split);
        let base = 0..days.last().map_or(0, |(_, r)| r.end);
        Data {
            clicks,
            base,
            tail,
            spec,
        }
    }

    /// The clicks of `rows` as their own MO.
    pub fn slice(&self, rows: Range<usize>) -> Mo {
        let ids: Vec<u32> = (rows.start as u32..rows.end as u32).collect();
        self.clicks.gather(&ids)
    }
}

fn fact_day(mo: &Mo, f: specdr::mdm::FactId) -> DayNum {
    let v = mo.value(f, specdr::mdm::DimId(0));
    match TimeValue::from_code(time_cat::DAY, v.code) {
        Ok(TimeValue::Day(d)) if v.cat == time_cat::DAY => d,
        _ => panic!("generated clicks carry day-level time values"),
    }
}
