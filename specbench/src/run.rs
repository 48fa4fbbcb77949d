//! One benchmark run: set-up, the writer phase, the measured phase of
//! the chosen workload with recoveries between its read slices, the
//! answer checks, and the metrics.

use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use specdr::driver::result_digest;
use specdr::mdm::calendar::civil_from_days;
use specdr::mdm::{DayNum, Mo, Schema};
use specdr::query::{aggregate_ids, select_snapshot};
use specdr::serve::{self, QuerySpec, ServeConfig};
use specdr::storage::{Fs, MemFs, RealFs};
use specdr::subcube::{AgeStats, CubeQuery, ShardRouter, ShardViewSet, SubcubeError};

use crate::data::{base_end, Data};
use crate::fs::{CountingFs, Io};
use crate::trace::{analyse, Tracer};
use crate::{Args, Workload};

/// Shards of the warehouse (the `specdr serve` default).
pub const SHARDS: usize = 2;
/// Set-ups per run; `setup_s` is their median. The second-last feeds
/// the writer phase and the last is served.
const SETUPS: usize = 3;
/// Days loaded without syncing for `read-unsync` (Section 7.3).
const UNSYNC_DAYS: usize = 30;
/// Days the writer phase replays.
const WRITER_DAYS: usize = 40;
/// Reading time between two recoveries. Spreading the recoveries over
/// the whole measured phase, rather than running them back to back,
/// keeps `recover_s` from following the host's speed of a few seconds.
const SLICE: Duration = Duration::from_secs(4);
/// The query classes: `serve::mix_specs` entries 0-3, in that order.
pub const CLASSES: [&str; 4] = ["rollup", "filter", "lub", "weighted"];
/// Client-side deadline of one request.
const TIMEOUT: Duration = Duration::from_secs(60);

/// The metrics of one run and whether every answer was right.
pub struct Report {
    /// True when nothing failed.
    pub correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Operations attempted and failed. Failures are error frames,
/// transport errors, answer mismatches and failed writer calls.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("specbench: FAILED: {what}");
        }
    }

    fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile (0 for no samples).
fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Times one writer call as a root span that storage calls nest under.
fn writer_op<T>(
    tracer: &Tracer,
    tally: &mut Tally,
    name: &'static str,
    f: impl FnOnce() -> Result<T, SubcubeError>,
) -> Result<(T, f64), String> {
    let span = tracer.open(name, 0);
    tracer.set_writer_parent(span.id());
    let t0 = Instant::now();
    let r = f();
    let ms = ms_since(t0);
    tracer.set_writer_parent(0);
    tracer.close(span, Vec::new());
    tally.check(r.is_ok(), name);
    r.map(|v| (v, ms)).map_err(|e| format!("{name}: {e}"))
}

/// The warehouse under test and how far its input has been fed.
struct Warehouse {
    router: Arc<ShardRouter>,
    data: Data,
    /// Clicks `0..loaded` have been bulk-loaded.
    loaded: usize,
    /// The next day of `data.tail` to feed.
    next_day: usize,
    /// The day the warehouse was last synced or aged to.
    aged_to: DayNum,
}

struct SetupTimes {
    total_s: f64,
    generate_ms: f64,
    sync_ms: f64,
}

/// Generate + load + sync + checkpoint (+ the pending month for
/// `read-unsync`).
fn setup(
    args: &Args,
    dir: &Path,
    fs: Arc<dyn Fs>,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<(Warehouse, SetupTimes), String> {
    let t0 = Instant::now();
    let tail = match args.workload {
        Workload::ReadSynced => WRITER_DAYS,
        Workload::ReadUnsync => UNSYNC_DAYS + WRITER_DAYS,
    };
    let g0 = Instant::now();
    let data = Data::generate(args.seed, tail as u32);
    let generate_ms = ms_since(g0);
    let router = ShardRouter::create_with_fs(data.spec.clone(), dir, SHARDS, fs).map_err(err)?;
    let base = data.slice(data.base.clone());
    writer_op(tracer, tally, "subcube.bulk_load", || {
        router.bulk_load(&base)
    })?;
    drop(base);
    let (_, sync_ms) = writer_op(tracer, tally, "subcube.sync", || router.sync(base_end()))?;
    writer_op(tracer, tally, "subcube.checkpoint", || router.checkpoint())?;
    let mut wh = Warehouse {
        router: Arc::new(router),
        loaded: data.base.end,
        next_day: 0,
        aged_to: base_end(),
        data,
    };
    if args.workload == Workload::ReadUnsync {
        let end = wh.data.tail[UNSYNC_DAYS - 1].1.end;
        let pending = wh.data.slice(wh.loaded..end);
        writer_op(tracer, tally, "subcube.bulk_load", || {
            wh.router.bulk_load(&pending)
        })?;
        wh.loaded = end;
        wh.next_day = UNSYNC_DAYS;
    }
    let times = SetupTimes {
        total_s: t0.elapsed().as_secs_f64(),
        generate_ms,
        sync_ms,
    };
    Ok((wh, times))
}

/// One day of the writer: load, age, and checkpoint at a month start.
struct DayStat {
    clicks: usize,
    load_ms: f64,
    age_ms: f64,
    ckpt_ms: Option<f64>,
    age: AgeStats,
    traced: bool,
    /// Storage calls made during the day (traced runs only).
    io: Io,
}

impl DayStat {
    fn wall_ms(&self) -> f64 {
        self.load_ms + self.age_ms + self.ckpt_ms.unwrap_or(0.0)
    }
}

/// Feeds the later days one at a time: `bulk_load(day)`, `age(day)`,
/// `checkpoint` when the day starts a month.
fn feed_days(
    wh: &mut Warehouse,
    tracer: &Tracer,
    counting: Option<&CountingFs>,
    tally: &mut Tally,
) -> Result<Vec<DayStat>, String> {
    let io_now = || counting.map(CountingFs::snapshot).unwrap_or_default();
    let mut out = Vec::new();
    while wh.next_day < wh.data.tail.len() {
        let (day, rows) = wh.data.tail[wh.next_day].clone();
        let facts = wh.data.slice(rows.clone());
        let traced = tracer.on();
        let io0 = io_now();
        let router = &wh.router;
        let (_, load_ms) = writer_op(tracer, tally, "subcube.bulk_load", || {
            router.bulk_load(&facts)
        })?;
        let (age, age_ms) = writer_op(tracer, tally, "subcube.age", || router.age(day))?;
        let ckpt_ms = if civil_from_days(day).2 == 1 {
            Some(writer_op(tracer, tally, "subcube.checkpoint", || router.checkpoint())?.1)
        } else {
            None
        };
        wh.loaded = rows.end;
        wh.next_day += 1;
        wh.aged_to = day;
        out.push(DayStat {
            clicks: rows.len(),
            load_ms,
            age_ms,
            ckpt_ms,
            age,
            traced,
            io: io_now().since(&io0),
        });
    }
    Ok(out)
}

/// A parsed `ok` query response.
struct Resp {
    epoch: u64,
    digest: u64,
    bytes: usize,
}

fn parse_response(payload: &[u8]) -> Result<Resp, String> {
    let (tag, body) = serve::split_response(payload)?;
    let body = String::from_utf8_lossy(body);
    if tag != serve::RESP_OK {
        return Err(format!("error frame: {body}"));
    }
    let field = |k: &str| serve::response_field(&body, k).ok_or(format!("response lacks {k}="));
    let epoch = field("epoch")?.parse().map_err(err)?;
    let digest = field("digest")?;
    let digest = u64::from_str_radix(digest.trim_start_matches("0x"), 16).map_err(err)?;
    Ok(Resp {
        epoch,
        digest,
        bytes: payload.len(),
    })
}

/// The per-request measurements of the traced in-process replay.
#[derive(Default, Clone, Copy)]
struct Replay {
    class: usize,
    unsync: bool,
    overhead_ms: f64,
    render_ms: f64,
    response_bytes: f64,
    build_us: f64,
    plan_us: f64,
    select_ms: f64,
    aggregate_ms: f64,
    combine_ms: f64,
    whole_ms: f64,
    /// Plan, then the slowest shard's select + aggregate + combine, then
    /// the cross-shard combine: the whole call's time if the parallel
    /// fan-out itself cost nothing.
    critical_ms: f64,
    unsync_extra_ms: f64,
    cubes_scanned: f64,
    cubes_skipped: f64,
    cubes_useful: f64,
    rows_in: f64,
    rows_selected: f64,
    rows_out: f64,
}

/// `union + aggregate`, the merge the evaluator applies between cubes
/// and between shards.
fn combine(schema: &Arc<Schema>, parts: &[Mo], q: &CubeQuery) -> Result<Mo, String> {
    let mut union = Mo::new(Arc::clone(schema));
    for p in parts {
        union.absorb(p).map_err(err)?;
    }
    aggregate_ids(&union, &q.levels, q.approach).map_err(err)
}

/// Replays one answered request in-process on the served epoch's view
/// set, timing each layer's public calls as children of `root`.
fn replay(
    tracer: &Tracer,
    root: u64,
    set: &ShardViewSet,
    class: usize,
    spec: &QuerySpec,
    resp: &Resp,
    rt_ms: f64,
) -> Result<Replay, String> {
    let schema = set.views()[0].schema();
    let body = spec.encode();
    let (q, build_ms) = tracer.time("spec.build", root, || {
        QuerySpec::decode(&body).and_then(|s| s.build(schema))
    });
    let q = q?;
    let now = spec.now;
    let mut r = Replay {
        class,
        unsync: spec.unsync,
        build_us: build_ms * 1e3,
        response_bytes: resp.bytes as f64,
        ..Replay::default()
    };
    // The whole call exactly as the daemon makes it.
    let (whole, whole_ms) = if spec.unsync {
        tracer.time("subcube.unsync", root, || set.query_unsync(&q, now, true))
    } else {
        tracer.time("subcube.query", root, || set.query(&q, now, true))
    };
    let whole = whole.map_err(err)?;
    r.whole_ms = whole_ms;
    r.overhead_ms = rt_ms - whole_ms;

    // The same evaluation, one public call at a time.
    let plans = if spec.unsync {
        None
    } else {
        let (p, ms) = tracer.time("plan.plans", root, || set.plans(&q, now));
        r.plan_us = ms * 1e3;
        Some(p)
    };
    let mut shard_parts = Vec::with_capacity(set.shards());
    let mut slowest_shard_ms = 0.0f64;
    for (s, view) in set.views().iter().enumerate() {
        let mut shard_ms = 0.0;
        if spec.unsync {
            let (u, u_ms) = tracer.time("subcube.unsync_view", root, || {
                view.query_unsync(&q, now, false)
            });
            let (n, n_ms) = tracer.time("subcube.naive", root, || view.query_naive(&q, now, false));
            u.map_err(err)?;
            n.map_err(err)?;
            r.unsync_extra_ms += u_ms - n_ms;
        }
        let scanned: Vec<usize> = match &plans {
            Some(p) => p[s].order.clone(),
            None => (0..view.cubes().len()).collect(),
        };
        r.cubes_skipped += (view.cubes().len() - scanned.len()) as f64;
        let mut parts = Vec::with_capacity(scanned.len());
        for i in scanned {
            let snap = view.cubes()[i].snapshot();
            r.rows_in += snap.len() as f64;
            let (sel, ms) = tracer.time("query.select", root, || {
                select_snapshot(&snap, q.pred.as_ref(), now, q.mode)
            });
            let sel = sel.map_err(err)?;
            r.select_ms += ms;
            shard_ms += ms;
            r.rows_selected += sel.len() as f64;
            let (agg, ms) = tracer.time("query.aggregate", root, || {
                aggregate_ids(&sel, &q.levels, q.approach)
            });
            let agg = agg.map_err(err)?;
            r.aggregate_ms += ms;
            shard_ms += ms;
            r.cubes_scanned += 1.0;
            if !agg.is_empty() {
                r.cubes_useful += 1.0;
            }
            parts.push(agg);
        }
        let (c, ms) = tracer.time("query.combine", root, || combine(schema, &parts, &q));
        r.combine_ms += ms;
        slowest_shard_ms = slowest_shard_ms.max(shard_ms + ms);
        shard_parts.push(c?);
    }
    let (decomposed, ms) = tracer.time("query.combine", root, || combine(schema, &shard_parts, &q));
    r.combine_ms += ms;
    r.critical_ms = r.plan_us / 1e3 + slowest_shard_ms + ms;
    let decomposed = decomposed?;

    // Rendering as `run_query` does it: every row rendered and sorted
    // for the body, then again inside `result_digest`.
    let (digest, render_ms) = tracer.time("serve.render", root, || {
        let mut rows: Vec<String> = whole.facts().map(|f| whole.render_fact(f)).collect();
        rows.sort();
        std::hint::black_box(&rows);
        result_digest(&whole)
    });
    r.render_ms = render_ms;
    r.rows_out = whole.len() as f64;
    if digest != resp.digest {
        return Err("in-process answer differs from the wire answer".into());
    }
    // The decomposition skips the unsync materialization, so only the
    // synchronized answer must match it.
    if !spec.unsync && result_digest(&decomposed) != resp.digest {
        return Err("call-by-call replay differs from the wire answer".into());
    }
    Ok(r)
}

/// Seeded request order: every block of four is a permutation of the
/// classes, so each class gets an equal share.
struct ClassOrder {
    state: u64,
    block: Vec<usize>,
}

impl ClassOrder {
    fn new(seed: u64) -> ClassOrder {
        ClassOrder {
            state: seed ^ 0x5eed_c1a5_5e50_0001,
            block: Vec::new(),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next(&mut self) -> usize {
        if self.block.is_empty() {
            self.block = (0..CLASSES.len()).collect();
            for i in (1..self.block.len()).rev() {
                let j = (self.next_u64() % (i as u64 + 1)) as usize;
                self.block.swap(i, j);
            }
        }
        self.block.pop().expect("refilled above")
    }
}

/// What one closed-loop client saw.
#[derive(Default)]
struct LoopStats {
    lat_ms: [Vec<f64>; 4],
    completed: u64,
    wall_s: f64,
    tally: Tally,
    replays: Vec<Replay>,
}

impl LoopStats {
    fn qps(&self) -> f64 {
        ratio(self.completed as f64, self.wall_s)
    }

    fn add(&mut self, other: LoopStats) {
        for (mine, theirs) in self.lat_ms.iter_mut().zip(other.lat_ms) {
            mine.extend(theirs);
        }
        self.completed += other.completed;
        self.wall_s += other.wall_s;
        self.tally.add(&other.tally);
        self.replays.extend(other.replays);
    }
}

/// One closed-loop client: it sends the next request only after the
/// last answer arrived. Every slice uses the same connection.
struct Client<'a> {
    addr: SocketAddr,
    conn: Option<TcpStream>,
    order: ClassOrder,
    tracer: &'a Tracer,
    /// The spec of each class.
    specs: &'a [QuerySpec],
    /// The only published view set, and each class's answer digest on it.
    set: &'a ShardViewSet,
    expected: &'a [u64],
}

impl Client<'_> {
    /// Runs for `secs` after one warm-up request per class, which is
    /// checked but not timed. Reading goes in slices of [`SLICE`], with
    /// `between` called after each. In a traced run the first half is
    /// untraced and the second half traced and replayed; the ratio of
    /// their rates is the tracing cost.
    fn run(
        mut self,
        secs: f64,
        traced_run: bool,
        mut between: impl FnMut(),
    ) -> (LoopStats, Option<f64>) {
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(secs);
        let mid = start + Duration::from_secs_f64(secs / 2.0);
        let warm = self.slice(end, CLASSES.len(), false);
        let (mut untraced, mut traced) = (LoopStats::default(), LoopStats::default());
        loop {
            let now = Instant::now();
            if now >= end {
                break;
            }
            let tracing = traced_run && now >= mid;
            if tracing && !self.tracer.on() {
                self.tracer.set_on(true);
                specdr::obs::set_enabled(true);
            }
            let stop = if traced_run && !tracing { mid } else { end };
            let st = self.slice((now + SLICE).min(stop), usize::MAX, tracing);
            if tracing {
                traced.add(st);
            } else {
                untraced.add(st);
            }
            between();
        }
        let (mut st, overhead) = if traced_run {
            let overhead = ratio(traced.qps(), untraced.qps());
            traced.tally.add(&untraced.tally);
            (traced, Some(overhead))
        } else {
            (untraced, None)
        };
        st.tally.add(&warm.tally);
        (st, overhead)
    }

    /// Sends requests until `until` or `limit` requests.
    fn slice(&mut self, until: Instant, limit: usize, replay_answers: bool) -> LoopStats {
        let tracer = self.tracer;
        let mut st = LoopStats::default();
        let start = Instant::now();
        if self.conn.is_none() {
            self.conn = TcpStream::connect_timeout(&self.addr, TIMEOUT).ok();
        }
        let mut sent = 0;
        while sent < limit && Instant::now() < until {
            sent += 1;
            let Some(stream) = self.conn.as_ref() else {
                st.tally.check(false, "connect to the daemon");
                break;
            };
            let class = self.order.next();
            let spec = &self.specs[class];
            let payload = serve::query_payload(spec);
            let root = tracer.open("bench.request", 0);
            let rt = tracer.open("serve.roundtrip", root.id());
            let t0 = Instant::now();
            let answer = serve::request_on(stream, &payload, TIMEOUT);
            let rt_ms = ms_since(t0);
            tracer.close(rt, Vec::new());
            let outcome = answer
                .map_err(|e| {
                    // The stream cannot be trusted after a transport error.
                    self.conn = TcpStream::connect_timeout(&self.addr, TIMEOUT).ok();
                    format!("transport: {e}")
                })
                .and_then(|p| parse_response(&p))
                .and_then(|resp| {
                    if resp.epoch != self.set.epoch() {
                        return Err(format!(
                            "served epoch {} but only {} exists",
                            resp.epoch,
                            self.set.epoch()
                        ));
                    }
                    if resp.digest != self.expected[class] {
                        return Err("answer digest differs from the in-process answer".into());
                    }
                    if replay_answers {
                        let r = replay(tracer, root.id(), self.set, class, spec, &resp, rt_ms)?;
                        st.replays.push(r);
                    }
                    Ok(())
                });
            tracer.close(root, vec![("class".into(), CLASSES[class].into())]);
            match outcome {
                Ok(()) => {
                    st.lat_ms[class].push(rt_ms);
                    st.completed += 1;
                    st.tally.check(true, "");
                }
                Err(e) => st
                    .tally
                    .check(false, &format!("{} request: {e}", CLASSES[class])),
            }
        }
        st.wall_s = start.elapsed().as_secs_f64();
        st
    }
}

/// Content digest of a view set: every shard's cubes, in order.
fn content_digest(set: &ShardViewSet) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in set.views() {
        for c in v.cubes() {
            h ^= result_digest(c.data());
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the writer phase left behind for recovery and the checks.
struct Written {
    days: Vec<DayStat>,
    /// The directory of the dropped warehouse.
    dir: PathBuf,
    /// Its content before the drop.
    content: u64,
    /// Epochs the phase published.
    epochs: u64,
    stored_bytes_per_fact: f64,
    data: Data,
    loaded: usize,
    aged_to: DayNum,
}

/// Replays [`WRITER_DAYS`] days on a set-up warehouse with nothing
/// reading it, then drops it, leaving its directory to be recovered.
fn writer_phase(
    mut wh: Warehouse,
    dir: PathBuf,
    tracer: &Tracer,
    counting: Option<&CountingFs>,
    tally: &mut Tally,
) -> Result<Written, String> {
    let epoch0 = wh.router.view_set().epoch();
    let days = feed_days(&mut wh, tracer, counting, tally)?;
    let set = wh.router.view_set();
    let written = Written {
        days,
        content: content_digest(&set),
        epochs: set.epoch() - epoch0,
        stored_bytes_per_fact: ratio(dir_bytes(&dir) as f64, wh.loaded as f64),
        dir,
        data: wh.data,
        loaded: wh.loaded,
        aged_to: wh.aged_to,
    };
    drop(set);
    drop(wh.router);
    Ok(written)
}

/// Runs one workload and gathers its metrics.
pub fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let tracer = Arc::new(Tracer::new(args.trace));
    specdr::obs::set_enabled(args.trace);
    let counting = args
        .trace
        .then(|| Arc::new(CountingFs::new(RealFs::shared(), Arc::clone(&tracer))));
    let fs: Arc<dyn Fs> = match &counting {
        Some(c) => Arc::clone(c) as Arc<dyn Fs>,
        None => RealFs::shared(),
    };
    let mut tally = Tally::default();

    // Set-up, repeated. The second-last warehouse goes through the
    // writer phase before the last set-up; the last one is served.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut written = None;
    let mut served = None;
    for i in 0..SETUPS {
        let dir = work.join(format!("wh{i}"));
        let (w, t) = setup(args, &dir, Arc::clone(&fs), &tracer, &mut tally)?;
        setups.push(t);
        if i + 1 == SETUPS {
            served = Some(w);
        } else if i + 2 == SETUPS {
            let counting = counting.as_deref();
            written = Some(writer_phase(w, dir, &tracer, counting, &mut tally)?);
        } else {
            drop(w);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let (wh, written) = served.zip(written).ok_or("fewer than two set-ups")?;
    let schema = Arc::clone(wh.router.schema());
    if args.trace {
        // The measured phase starts untraced (see `Client::run`).
        tracer.set_on(false);
        specdr::obs::set_enabled(false);
    }

    // The connection idles while a recovery runs, so the daemon's idle
    // deadline is the client's, not the default five seconds.
    let config = ServeConfig {
        read_timeout: TIMEOUT,
        ..ServeConfig::default()
    };
    let handle = serve::serve(Arc::clone(&wh.router), &config).map_err(err)?;
    let unsync = args.workload == Workload::ReadUnsync;
    let now = if unsync {
        base_end() + UNSYNC_DAYS as DayNum
    } else {
        base_end()
    };
    let specs = serve::mix_specs(now, unsync);
    let set = wh.router.view_set();
    let mut expected = Vec::with_capacity(specs.len());
    for s in &specs {
        let q = s.build(&schema)?;
        let mo = if unsync {
            set.query_unsync(&q, now, true)
        } else {
            set.query(&q, now, true)
        }
        .map_err(err)?;
        expected.push(result_digest(&mo));
    }
    let client = Client {
        addr: handle.addr(),
        conn: None,
        order: ClassOrder::new(args.seed),
        tracer: &tracer,
        specs: &specs,
        set: &set,
        expected: &expected,
    };
    // Between read slices: recover the writer phase's directory. Each
    // recovered content must equal the content before the drop.
    let mut recover_ms = Vec::new();
    let mut recover_io = Io::default();
    let (mut reads, overhead) = client.run(args.seconds, args.trace, || {
        let io0 = counting.as_ref().map(|c| c.snapshot()).unwrap_or_default();
        let recovered = writer_op(&tracer, &mut tally, "subcube.recover", || {
            ShardRouter::recover_with_fs(written.data.spec.clone(), &written.dir, Arc::clone(&fs))
        });
        if let Some(c) = &counting {
            recover_io = recover_io.plus(&c.snapshot().since(&io0));
        }
        if let Ok(((router, _), ms)) = recovered {
            tally.check(
                content_digest(&router.view_set()) == written.content,
                "recovered content equals the content before the drop",
            );
            recover_ms.push(ms);
        }
    });
    handle.shutdown();
    let peak_rss = peak_rss_mb();

    // Last, so that its allocations disturb nothing timed: the writer
    // phase's final content equals a fresh load of the same clicks
    // synced to the same day.
    let fresh = ShardRouter::create_with_fs(
        written.data.spec.clone(),
        Path::new("/fresh"),
        SHARDS,
        MemFs::shared(),
    )
    .map_err(err)?;
    fresh
        .bulk_load(&written.data.slice(0..written.loaded))
        .map_err(err)?;
    fresh.sync(written.aged_to).map_err(err)?;
    tally.check(
        content_digest(&fresh.view_set()) == written.content,
        "final content equals a fresh load plus sync to the last day",
    );
    reads.tally.add(&tally);

    let days = &written.days;
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: String, v: f64, unit: &'static str| metrics.push((name, v, unit));
    let writer_ms: f64 = days.iter().map(DayStat::wall_ms).sum();
    let clicks: usize = days.iter().map(|d| d.clicks).sum();
    if !args.trace {
        put(
            "setup_s".into(),
            median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>()),
            "s",
        );
        put("query_qps".into(), reads.qps(), "req/s");
        for (c, name) in CLASSES.iter().enumerate() {
            put(
                format!("{name}_p50_ms"),
                percentile(&reads.lat_ms[c], 0.5),
                "ms",
            );
            put(
                format!("{name}_p90_ms"),
                percentile(&reads.lat_ms[c], 0.9),
                "ms",
            );
        }
        put(
            "ingest_facts_per_s".into(),
            ratio(clicks as f64, writer_ms / 1e3),
            "clicks/s",
        );
        put(
            "age_tick_ms".into(),
            median(&days.iter().map(|d| d.age_ms).collect::<Vec<_>>()),
            "ms",
        );
        put("recover_s".into(), median(&recover_ms) / 1e3, "s");
        put(
            "stored_bytes_per_fact".into(),
            written.stored_bytes_per_fact,
            "B/click",
        );
        put("peak_rss_mb".into(), peak_rss, "MiB");
        eprintln!(
            "specbench: {} requests in {:.1} s, samples per class {:?}, {} recoveries",
            reads.completed,
            reads.wall_s,
            reads.lat_ms.iter().map(Vec::len).collect::<Vec<_>>(),
            recover_ms.len()
        );
    } else {
        layer_metrics(
            &mut put,
            &reads.replays,
            &written,
            &setups,
            &recover_io,
            recover_ms.len(),
            overhead.unwrap_or(0.0),
        );
        report_trace(args, &tracer, &reads.replays)?;
    }
    Ok(Report {
        correct: reads.tally.failed == 0,
        attempted: reads.tally.attempted,
        failed: reads.tally.failed,
        metrics,
    })
}

/// Picks one per-class value out of a replay (`None`: not applicable).
type Pick = fn(&Replay) -> Option<f64>;

/// The per-class metrics: name, unit, value. Each reports the median
/// over the class's traced requests (0 when none applies).
const PER_CLASS: [(&str, &str, Pick); 12] = [
    ("serve.overhead_ms", "ms", |r| Some(r.overhead_ms)),
    ("serve.render_ms", "ms", |r| Some(r.render_ms)),
    ("serve.response_bytes", "B", |r| Some(r.response_bytes)),
    ("spec.build_us", "us", |r| Some(r.build_us)),
    ("plan.plan_us", "us", |r| (!r.unsync).then_some(r.plan_us)),
    ("query.select_ms", "ms", |r| Some(r.select_ms)),
    ("query.aggregate_ms", "ms", |r| Some(r.aggregate_ms)),
    ("query.combine_ms", "ms", |r| Some(r.combine_ms)),
    ("query.rows_per_result", "rows", |r| Some(r.rows_out)),
    ("subcube.query_ms", "ms", |r| {
        (!r.unsync).then_some(r.whole_ms)
    }),
    ("subcube.unsync_ms", "ms", |r| {
        r.unsync.then_some(r.whole_ms)
    }),
    ("subcube.unsync_extra_ms", "ms", |r| {
        r.unsync.then_some(r.unsync_extra_ms)
    }),
];

/// The per-layer metrics of a traced run.
fn layer_metrics(
    put: &mut impl FnMut(String, f64, &'static str),
    replays: &[Replay],
    written: &Written,
    setups: &[SetupTimes],
    recover_io: &Io,
    recoveries: usize,
    overhead_ratio: f64,
) {
    for (c, class) in CLASSES.iter().enumerate() {
        for (name, unit, pick) in PER_CLASS {
            let of_class = replays.iter().filter(|r| r.class == c);
            let v: Vec<f64> = of_class.filter_map(pick).collect();
            put(format!("{name}.{class}"), median(&v), unit);
        }
    }
    let mean = |f: fn(&Replay) -> f64| ratio(replays.iter().map(f).sum(), replays.len() as f64);
    let synced_n = replays.iter().filter(|r| !r.unsync).count() as f64;
    let synced_sum =
        |f: fn(&Replay) -> f64| -> f64 { replays.iter().filter(|r| !r.unsync).map(f).sum::<f64>() };
    put(
        "plan.cubes_scanned".into(),
        ratio(synced_sum(|r| r.cubes_scanned), synced_n),
        "cubes",
    );
    put(
        "plan.cubes_skipped".into(),
        ratio(synced_sum(|r| r.cubes_skipped), synced_n),
        "cubes",
    );
    put(
        "plan.useful_scan_ratio".into(),
        ratio(
            synced_sum(|r| r.cubes_useful),
            synced_sum(|r| r.cubes_scanned),
        ),
        "ratio",
    );
    put("query.rows_in".into(), mean(|r| r.rows_in), "rows");
    put(
        "query.rows_selected".into(),
        mean(|r| r.rows_selected),
        "rows",
    );
    put("query.rows_out".into(), mean(|r| r.rows_out), "rows");
    put(
        "subcube.fanout_self_ms".into(),
        median(
            &replays
                .iter()
                .filter(|r| !r.unsync)
                .map(|r| r.whole_ms - r.critical_ms)
                .collect::<Vec<_>>(),
        ),
        "ms",
    );

    let traced: Vec<&DayStat> = written.days.iter().filter(|d| d.traced).collect();
    let day_median = |f: fn(&DayStat) -> Option<f64>| -> f64 {
        median(&traced.iter().filter_map(|d| f(d)).collect::<Vec<_>>())
    };
    let day_sum =
        |f: fn(&DayStat) -> usize| -> f64 { traced.iter().map(|d| f(d)).sum::<usize>() as f64 };
    let n_days = traced.len() as f64;
    put(
        "subcube.bulk_load_ms".into(),
        day_median(|d| Some(d.load_ms)),
        "ms",
    );
    put(
        "subcube.age_ms".into(),
        day_median(|d| Some(d.age_ms)),
        "ms",
    );
    put(
        "subcube.checkpoint_ms".into(),
        day_median(|d| d.ckpt_ms),
        "ms",
    );
    let (rebuilt, skipped) = (
        day_sum(|d| d.age.cubes_rebuilt),
        day_sum(|d| d.age.cubes_skipped),
    );
    put(
        "subcube.age_cubes_rebuilt".into(),
        ratio(rebuilt, n_days),
        "cubes",
    );
    put(
        "subcube.age_cubes_skipped".into(),
        ratio(skipped, n_days),
        "cubes",
    );
    put(
        "subcube.age_carry_ratio".into(),
        ratio(skipped, skipped + rebuilt),
        "ratio",
    );
    put(
        "subcube.age_cells_delta".into(),
        ratio(day_sum(|d| d.age.cells_delta), n_days),
        "cells",
    );
    put(
        "subcube.sync_ms".into(),
        median(&setups.iter().map(|s| s.sync_ms).collect::<Vec<_>>()),
        "ms",
    );
    put("subcube.epochs".into(), written.epochs as f64, "count");

    // Writes cover the traced writer days; reads cover recovery.
    let io = traced.iter().fold(Io::default(), |a, d| a.plus(&d.io));
    let clicks: f64 = traced.iter().map(|d| d.clicks as f64).sum();
    let wall_ms: f64 = traced.iter().map(|d| d.wall_ms()).sum();
    let ms = |ns: u64| ns as f64 / 1e6;
    put(
        "storage.append_calls".into(),
        io.append_calls as f64,
        "count",
    );
    put("storage.append_bytes".into(), io.append_bytes as f64, "B");
    put("storage.append_ms".into(), ms(io.append_ns), "ms");
    put("storage.write_calls".into(), io.write_calls as f64, "count");
    put("storage.write_bytes".into(), io.write_bytes as f64, "B");
    put("storage.write_ms".into(), ms(io.write_ns), "ms");
    put("storage.fsyncs".into(), io.fsyncs as f64, "count");
    let per_recover = |v: u64| ratio(v as f64, recoveries as f64);
    put(
        "storage.read_bytes".into(),
        per_recover(recover_io.read_bytes),
        "B",
    );
    put(
        "storage.read_ms".into(),
        per_recover(recover_io.read_ns) / 1e6,
        "ms",
    );
    put(
        "storage.bytes_per_fact".into(),
        ratio((io.append_bytes + io.write_bytes) as f64, clicks),
        "B/click",
    );
    put(
        "storage.busy_share".into(),
        ratio(ms(io.busy_ns()), wall_ms),
        "ratio",
    );
    put(
        "workload.generate_ms".into(),
        median(&setups.iter().map(|s| s.generate_ms).collect::<Vec<_>>()),
        "ms",
    );
    put("obs.overhead_ratio".into(), overhead_ratio, "ratio");
}

/// Prints the self-time and coverage tables and writes the chrome trace.
fn report_trace(args: &Args, tracer: &Tracer, replays: &[Replay]) -> Result<(), String> {
    let mine = tracer.spans();
    let analysis = analyse(&mine);
    eprintln!("{}", analysis.render());
    let share = |num: f64, den: f64| 100.0 * ratio(num, den);
    let (mut whole_s, mut parts_s, mut whole_u, mut parts_u) = (0.0, 0.0, 0.0, 0.0);
    for r in replays {
        if r.unsync {
            whole_u += r.whole_ms;
            parts_u += r.critical_ms;
        } else {
            whole_s += r.whole_ms;
            parts_s += r.critical_ms;
        }
    }
    eprintln!(
        "attribution: the critical path of plan, select, aggregate and combine accounts \
         for {:.1}% of subcube.query and {:.1}% of subcube.unsync; the rest of \
         subcube.unsync is the unsync materialization, which no public call exposes \
         (coverage gap, left open)",
        share(parts_s, whole_s),
        share(parts_u, whole_u)
    );
    let mut all = mine;
    all.extend(specdr::obs::global().traces().snapshot());
    let dir = Path::new(".bench_trace");
    std::fs::create_dir_all(dir).map_err(err)?;
    let path = dir.join(format!("{}-seed{}.json", args.workload.name(), args.seed));
    std::fs::write(&path, specdr::obs::chrome_trace_json(&all)).map_err(err)?;
    eprintln!("specbench: chrome trace written to {}", path.display());
    Ok(())
}
