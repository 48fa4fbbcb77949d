//! The traced run's span recorder: spans the benchmark opens around its
//! calls into each layer, kept in memory and analysed at exit.
//!
//! Span times share the global `sdr_obs` registry's clock, so the
//! program's own spans (retained in that registry's bounded ring) can be
//! exported beside these in one chrome trace. Ids start at 2^62 to stay
//! clear of the registry's.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use specdr::obs::TraceSpan;

/// The span recorder. While off it hands out inert spans.
pub struct Tracer {
    on: AtomicBool,
    spans: Mutex<Vec<TraceSpan>>,
    next: AtomicU64,
    /// The writer-side span that storage calls on any thread nest under
    /// (0 when none is open). Storage runs on the shard fan-out threads,
    /// so the parent cannot come from the calling thread.
    writer_parent: AtomicU64,
}

/// An open span; [`Tracer::close`] records it.
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// The span's id, for opening children under it (0 when inert).
    pub fn id(&self) -> u64 {
        self.id
    }
}

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1000);
    TID.with(|t| {
        if t.get() == 0 {
            // relaxed-ok: a unique label, publishes no data.
            t.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

fn now_ns() -> u64 {
    specdr::obs::global().now_ns()
}

impl Tracer {
    /// A recorder, initially recording when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: AtomicBool::new(on),
            spans: Mutex::new(Vec::new()),
            next: AtomicU64::new(1 << 62),
            writer_parent: AtomicU64::new(0),
        }
    }

    /// True when spans are recorded.
    pub fn on(&self) -> bool {
        // relaxed-ok: a mode flag; spans carry their own data.
        self.on.load(Ordering::Relaxed)
    }

    /// Starts or stops recording.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Opens `name` under `parent` (0 for a root span).
    pub fn open(&self, name: &'static str, parent: u64) -> Open {
        if !self.on() {
            return Open {
                id: 0,
                parent,
                name,
                start_ns: 0,
            };
        }
        Open {
            // relaxed-ok: a unique id, publishes no data.
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: now_ns(),
        }
    }

    /// Closes `span` with its attributes and returns its duration in ns.
    pub fn close(&self, span: Open, attrs: Vec<(String, String)>) -> u64 {
        if span.id == 0 {
            return 0;
        }
        let dur_ns = now_ns().saturating_sub(span.start_ns);
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking recorder")
            .push(TraceSpan {
                id: span.id,
                parent: span.parent,
                name: span.name.to_string(),
                path: span.name.to_string(),
                tid: tid(),
                start_ns: span.start_ns,
                dur_ns,
                attrs,
            });
        dur_ns
    }

    /// Times `f` as span `name` under `parent` and returns its result
    /// together with the elapsed wall time in milliseconds.
    pub fn time<T>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.open(name, parent);
        let t0 = std::time::Instant::now();
        let out = f();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.close(span, Vec::new());
        (out, ms)
    }

    /// Sets the span storage calls nest under (0 to clear).
    pub fn set_writer_parent(&self, id: u64) {
        // Relaxed: the id is a label; storage calls made by threads the
        // writer spawns after this store are ordered by the spawn.
        self.writer_parent.store(id, Ordering::Relaxed);
    }

    /// The span storage calls nest under.
    pub fn writer_parent(&self) -> u64 {
        self.writer_parent.load(Ordering::Relaxed)
    }

    /// Every recorded span.
    pub fn spans(&self) -> Vec<TraceSpan> {
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking recorder")
            .clone()
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`.
fn covered(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut total, mut cur) = (0u64, start);
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(cur), e.min(end));
        if e > s {
            total += e - s;
            cur = e;
        }
    }
    total
}

/// Per-span-name totals: count, duration, self time.
#[derive(Default, Clone, Copy)]
pub struct NameStat {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration (ns).
    pub dur_ns: u64,
    /// Summed self time: duration minus the part child spans cover (ns).
    pub self_ns: u64,
}

/// Self time per span name, and for each root name the share of its
/// duration that its named children cover.
pub struct Analysis {
    /// Per span name.
    pub by_name: BTreeMap<String, NameStat>,
    /// Per root span name: (summed duration, summed child coverage), ns.
    pub roots: BTreeMap<String, (u64, u64)>,
}

/// Computes self times and root coverage over `spans`.
pub fn analyse(spans: &[TraceSpan]) -> Analysis {
    let mut kids: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        kids.entry(s.parent)
            .or_default()
            .push((s.start_ns, s.start_ns + s.dur_ns));
    }
    let mut by_name: BTreeMap<String, NameStat> = BTreeMap::new();
    let mut roots: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let end = s.start_ns + s.dur_ns;
        let cov = kids
            .get_mut(&s.id)
            .map_or(0, |c| covered(s.start_ns, end, c));
        let e = by_name.entry(s.name.clone()).or_default();
        e.count += 1;
        e.dur_ns += s.dur_ns;
        e.self_ns += s.dur_ns - cov.min(s.dur_ns);
        if s.parent == 0 {
            let r = roots.entry(s.name.clone()).or_default();
            r.0 += s.dur_ns;
            r.1 += cov;
        }
    }
    Analysis { by_name, roots }
}

impl Analysis {
    /// Renders the self-time table (per span and per layer, the layer
    /// being the name's first dotted component) and the root coverage.
    pub fn render(&self) -> String {
        let mut out = String::from("span                        count    total_ms     self_ms\n");
        let mut layers: BTreeMap<&str, NameStat> = BTreeMap::new();
        for (name, s) in &self.by_name {
            out.push_str(&format!(
                "{name:<26} {:>7} {:>11.1} {:>11.1}\n",
                s.count,
                s.dur_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6
            ));
            let layer = name.split('.').next().unwrap_or(name);
            let l = layers.entry(layer).or_default();
            l.count += s.count;
            l.dur_ns += s.dur_ns;
            l.self_ns += s.self_ns;
        }
        let all_self: u64 = layers.values().map(|l| l.self_ns).sum::<u64>().max(1);
        out.push_str("\nlayer        self_ms  share_of_all_self\n");
        for (layer, l) in &layers {
            out.push_str(&format!(
                "{layer:<10} {:>9.1} {:>8.1}%\n",
                l.self_ns as f64 / 1e6,
                100.0 * l.self_ns as f64 / all_self as f64
            ));
        }
        out.push_str("\nroot span                   total_ms  covered_by_named_children\n");
        for (name, (dur, cov)) in &self.roots {
            out.push_str(&format!(
                "{name:<26} {:>9.1} {:>8.1}%\n",
                *dur as f64 / 1e6,
                100.0 * *cov as f64 / (*dur).max(1) as f64
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start: u64, dur: u64) -> TraceSpan {
        TraceSpan {
            id,
            parent,
            name: name.into(),
            path: name.into(),
            tid: 1,
            start_ns: start,
            dur_ns: dur,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100 with overlapping children 10..40 and 30..50 and a
        // child running past the root's end (90..120).
        let spans = vec![
            span(1, 0, "bench.request", 0, 100),
            span(2, 1, "query.select", 10, 30),
            span(3, 1, "query.aggregate", 30, 20),
            span(4, 1, "serve.render", 90, 30),
        ];
        let a = analyse(&spans);
        assert_eq!(a.by_name["bench.request"].self_ns, 100 - 40 - 10);
        assert_eq!(a.roots["bench.request"], (100, 50));
        assert_eq!(a.by_name["serve.render"].self_ns, 30);
    }
}
