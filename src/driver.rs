//! Closed-loop concurrent warehouse drivers.
//!
//! One seeded writer applies a [`churn_script`] of bulk loads, syncs,
//! and specification insert/delete to a [`ShardRouter`], while readers
//! continuously issue the Figure 5–9 query mix ([`serve::mix_specs`])
//! against whatever view set the router publishes. Two reader flavours
//! share one harness: [`drive`] runs in-process reader threads against
//! a fresh in-memory warehouse, and [`drive_socket`] runs TCP clients
//! against a live `specdr serve` daemon. The writer retains every set it
//! publishes; after the threads join, every observation `(epoch, query,
//! result digest)` is re-evaluated against the retained set of that
//! exact epoch — a mismatch is a *torn read*, a result that matches no
//! published version of the warehouse. Under snapshot isolation the
//! count must be zero.
//!
//! The writer side is deliberately deterministic: the churn schedule
//! and therefore the sequence of published epochs and their content
//! digests are a pure function of the seed, which is what
//! `scripts/ci.sh` compares across two runs (`SPECDR_CRASH_SEED`). Only
//! the reader interleaving varies between runs, and the torn-read check
//! makes any interleaving-visible inconsistency a test failure.
//!
//! [`churn_script`]: sdr_workload::churn_script

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sdr_mdm::{calendar::days_from_civil, DayNum, Mo, Schema};
use sdr_reduce::DataReductionSpec;
use sdr_subcube::{ShardRouter, ShardViewSet, SubcubeError};
use sdr_workload::{churn_script, ChurnOp, SplitMix64};

use crate::serve;

/// Configuration of one driver run.
#[derive(Debug, Clone)]
pub struct DriveConfig {
    /// Seed for the churn schedule and the reader query draws.
    pub seed: u64,
    /// Number of concurrent reader threads.
    pub readers: usize,
    /// Number of churn mutations the writer applies.
    pub steps: usize,
    /// Minimum queries each reader issues (readers keep querying while
    /// the writer is active, then drain down to this floor).
    pub min_queries_per_reader: usize,
}

impl Default for DriveConfig {
    fn default() -> Self {
        DriveConfig {
            seed: 42,
            readers: 4,
            steps: 30,
            min_queries_per_reader: 40,
        }
    }
}

/// The outcome of a driver run.
#[derive(Debug)]
pub struct DriveReport {
    /// `(epoch, content digest)` of every version the writer published,
    /// in publication order — a pure function of the seed.
    pub published: Vec<(u64, u64)>,
    /// Total queries issued by all readers.
    pub observations: usize,
    /// Observations whose result digest matched no published version of
    /// the epoch they read. Must be zero under snapshot isolation.
    pub torn_reads: usize,
    /// Mutations the writer applied successfully.
    pub mutations_ok: usize,
    /// Mutations the warehouse rejected (e.g. a spec delete failing
    /// Definition 4's responsibility check) — legal, non-publishing.
    pub mutations_rejected: usize,
    /// FNV-1a fold of `published` — the digest `scripts/ci.sh` compares
    /// across two runs with the same seed.
    pub schedule_digest: u64,
}

/// FNV-1a64 over an MO's *sorted* rendered rows: an order-insensitive
/// content digest, so parallel and sequential evaluation of the same
/// query against the same version agree.
pub fn result_digest(mo: &Mo) -> u64 {
    let mut rows: Vec<String> = mo.facts().map(|f| mo.render_fact(f)).collect();
    rows.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in &rows {
        for &b in row.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0x0A;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Content digest of a whole published set (every shard's cubes, in
/// shard/cube order).
fn set_digest(set: &ShardViewSet) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in set.views() {
        let mut vh: u64 = 0xcbf2_9ce4_8422_2325;
        for c in v.cubes() {
            vh ^= result_digest(c.data());
            vh = vh.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= vh;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The fixed evaluation days readers draw `NOW` from (results differ per
/// day, so each observation records which one it used).
const QUERY_DAYS: [(i32, u32, u32); 3] = [(2000, 9, 15), (2001, 6, 15), (2002, 3, 1)];

/// One reader observation: which mix query ran against which published
/// epoch and what the result's content digest was.
#[derive(Debug, Clone, Copy)]
struct Observation {
    epoch: u64,
    query: usize,
    unsync: bool,
    now: DayNum,
    digest: u64,
}

/// Evaluates mix entry `query` at `now` against `set`.
fn evaluate(
    schema: &Arc<Schema>,
    set: &ShardViewSet,
    query: usize,
    now: DayNum,
    unsync: bool,
    parallel: bool,
) -> Option<Mo> {
    let spec = serve::mix_specs(now, unsync).swap_remove(query);
    let q = spec.build(schema).ok()?;
    if unsync {
        set.query_unsync(&q, now, parallel).ok()
    } else {
        set.query(&q, now, parallel).ok()
    }
}

/// Applies one churn op through the router. `Ok(true)` when the op
/// published a new set, `Ok(false)` when the warehouse rejected it
/// (legal, nothing published).
fn apply_churn(r: &ShardRouter, op: &ChurnOp) -> Result<bool, SubcubeError> {
    let res = match op {
        ChurnOp::Load(mo) => r.bulk_load(mo).map(|_| ()),
        ChurnOp::Sync(t) => r.sync(*t).map(|_| ()),
        ChurnOp::SpecInsert(a) => r.spec_insert(vec![a.clone()]).map(|_| ()),
        ChurnOp::SpecDelete(id, t) => r.spec_delete(&[*id], *t),
    };
    match res {
        Ok(()) => Ok(true),
        // Spec-evolution rejections are part of a legal schedule; any
        // other error is a real failure the driver must surface.
        Err(SubcubeError::Reduce(_)) => Ok(false),
        Err(e) => Err(e),
    }
}

/// What one closed loop produced, before the audit.
struct Loop {
    /// `(epoch, content digest)` of every set the writer published.
    published: Vec<(u64, u64)>,
    /// Observations whose result matched no retained set of their epoch.
    torn_reads: usize,
    observations: usize,
    mutations_ok: usize,
    mutations_rejected: usize,
}

/// The harness both drivers share: `readers` threads run `reader(i,
/// done)` (which returns its observations once `done` is set and its
/// quota is met) while this thread applies a seeded churn script through
/// `router`, retaining every published set; then every observation is
/// audited against the retained set of its epoch.
fn closed_loop(
    router: &ShardRouter,
    seed: u64,
    steps: usize,
    readers: usize,
    reader: impl Fn(usize, &AtomicBool) -> Vec<Observation> + Sync,
) -> Result<Loop, SubcubeError> {
    let schema = Arc::clone(router.schema());
    let script = churn_script(&schema, seed, steps);
    let mut published = vec![router.view_set()];
    let observations: Mutex<Vec<Observation>> = Mutex::new(Vec::new());
    let done = AtomicBool::new(false);
    let (mut mutations_ok, mut mutations_rejected) = (0, 0);
    let mut writer_err = None;
    std::thread::scope(|s| {
        for r in 0..readers {
            let (reader, done, observations) = (&reader, &done, &observations);
            s.spawn(move || {
                let local = reader(r, done);
                observations.lock().unwrap().extend(local);
            });
        }
        // Writer: apply the schedule, retaining each published set. The
        // writer is the only mutator, so the set read right after a
        // successful mutation is exactly the one it published.
        for op in &script {
            match apply_churn(router, op) {
                Ok(true) => {
                    mutations_ok += 1;
                    published.push(router.view_set());
                }
                Ok(false) => mutations_rejected += 1,
                Err(e) => {
                    writer_err = Some(e);
                    break;
                }
            }
        }
        // Release: readers' Acquire loads of `done` must also observe
        // every set published before the writer finished.
        done.store(true, Ordering::Release);
    });
    if let Some(e) = writer_err {
        return Err(e);
    }

    // Audit: re-evaluate every observation against the retained set of
    // the epoch it read. Sequential evaluation is the reference; the
    // digest is order-insensitive so it matches parallel results too.
    let by_epoch: std::collections::HashMap<u64, &ShardViewSet> =
        published.iter().map(|v| (v.epoch(), v.as_ref())).collect();
    let observations = observations.into_inner().unwrap();
    let torn_reads = observations
        .iter()
        .filter(|ob| {
            let expect = by_epoch
                .get(&ob.epoch)
                .and_then(|set| evaluate(&schema, set, ob.query, ob.now, ob.unsync, false));
            !matches!(expect, Some(mo) if result_digest(&mo) == ob.digest)
        })
        .count();
    Ok(Loop {
        published: published
            .iter()
            .map(|v| (v.epoch(), set_digest(v)))
            .collect(),
        torn_reads,
        observations: observations.len(),
        mutations_ok,
        mutations_rejected,
    })
}

fn query_days() -> Vec<DayNum> {
    QUERY_DAYS
        .iter()
        .map(|&(y, mo_, d)| days_from_civil(y, mo_, d))
        .collect()
}

/// Runs the closed loop against a fresh in-memory warehouse seeded with
/// `spec`: writer churn + `cfg.readers` in-process reader threads, then
/// the torn-read audit. See the module docs for the guarantees checked.
pub fn drive(spec: DataReductionSpec, cfg: &DriveConfig) -> Result<DriveReport, SubcubeError> {
    let router = ShardRouter::in_memory(spec);
    let schema = Arc::clone(router.schema());
    let query_days = query_days();
    let lp = closed_loop(&router, cfg.seed, cfg.steps, cfg.readers, |r, done| {
        let mut rng = SplitMix64(cfg.seed ^ 0x5EAD ^ (r as u64).wrapping_mul(0x9E37_79B9));
        let mut local = Vec::new();
        let mut n = 0usize;
        // Acquire: pairs with the writer's Release store so a reader
        // that sees `done` also sees the final publish.
        while !done.load(Ordering::Acquire) || n < cfg.min_queries_per_reader {
            let now = query_days[rng.below(query_days.len() as u64) as usize];
            let unsync = rng.below(2) == 0;
            let query = rng.below(serve::mix_specs(now, unsync).len() as u64) as usize;
            let parallel = rng.below(2) == 0;
            let set = router.view_set();
            if let Some(res) = evaluate(&schema, &set, query, now, unsync, parallel) {
                local.push(Observation {
                    epoch: set.epoch(),
                    query,
                    unsync,
                    now,
                    digest: result_digest(&res),
                });
            }
            n += 1;
        }
        local
    })?;
    let mut schedule_digest: u64 = 0xcbf2_9ce4_8422_2325;
    for &(e, d) in &lp.published {
        schedule_digest ^= e.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ d;
        schedule_digest = schedule_digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
    Ok(DriveReport {
        published: lp.published,
        observations: lp.observations,
        torn_reads: lp.torn_reads,
        mutations_ok: lp.mutations_ok,
        mutations_rejected: lp.mutations_rejected,
        schedule_digest,
    })
}

/// Configuration of one socket load-generator run.
#[derive(Debug, Clone)]
pub struct SocketDriveConfig {
    /// Seed for the churn schedule and the client query draws.
    pub seed: u64,
    /// Number of concurrent OS client threads, each with its own
    /// connection to the daemon.
    pub clients: usize,
    /// Number of churn mutations the writer applies through the router.
    pub steps: usize,
    /// Minimum requests each client issues.
    pub min_queries_per_client: usize,
    /// Per-request client-side timeout.
    pub timeout: Duration,
}

impl Default for SocketDriveConfig {
    fn default() -> Self {
        SocketDriveConfig {
            seed: 42,
            clients: 4,
            steps: 30,
            min_queries_per_client: 40,
            timeout: Duration::from_secs(10),
        }
    }
}

/// The outcome of a socket load-generator run.
#[derive(Debug)]
pub struct SocketDriveReport {
    /// `(epoch, content digest)` of every version the writer published
    /// through the router, in publication order.
    pub published: Vec<(u64, u64)>,
    /// Successful query responses received by all clients.
    pub observations: usize,
    /// Responses whose `(epoch, digest)` matched no retained published
    /// version — a torn read *through the wire*. Must be zero.
    pub torn_reads: usize,
    /// Mutations the writer applied successfully.
    pub mutations_ok: usize,
    /// Mutations the warehouse rejected (legal, non-publishing).
    pub mutations_rejected: usize,
    /// Typed protocol error frames received (busy, bad request, …).
    pub proto_errors: usize,
    /// Transport-level failures (connect/timeout/frame corruption).
    pub transport_errors: usize,
    /// Client-observed per-request latency in nanoseconds, sorted
    /// ascending — index with [`percentile`].
    pub latency_ns: Vec<u64>,
}

/// Picks the `p`-th percentile (0.0..=1.0) out of sorted samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs the multi-client load generator against a live `specdr serve`
/// daemon at `addr`, while a local writer thread churns the same
/// [`ShardRouter`] the daemon serves from.
///
/// Each client owns one TCP connection and pipelines requests drawn from
/// [`serve::mix_specs`]; the writer retains every [`ShardViewSet`] it
/// publishes. After the threads join, every response's `(epoch, digest)`
/// pair is re-derived by evaluating the same query against the retained
/// set of that epoch — a mismatch is a torn read that leaked through the
/// wire. Under the router's atomic cross-shard publish the count must be
/// zero.
pub fn drive_socket(
    router: Arc<ShardRouter>,
    addr: SocketAddr,
    cfg: &SocketDriveConfig,
) -> Result<SocketDriveReport, SubcubeError> {
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let proto_errors = AtomicUsize::new(0);
    let transport_errors = AtomicUsize::new(0);
    let query_days = query_days();
    let lp = closed_loop(&router, cfg.seed, cfg.steps, cfg.clients, |c, done| {
        let mut rng = SplitMix64(cfg.seed ^ 0x50C4E7 ^ (c as u64).wrapping_mul(0x9E37_79B9));
        let mut local = Vec::new();
        let Ok(stream) = TcpStream::connect_timeout(&addr, cfg.timeout) else {
            // relaxed-ok: monotonic error counter, read only after join.
            transport_errors.fetch_add(1, Ordering::Relaxed);
            return local;
        };
        let mut local_lat = Vec::new();
        let mut n = 0usize;
        // Acquire: pairs with the writer's Release store so a reader
        // that sees `done` also sees the final publish.
        while !done.load(Ordering::Acquire) || n < cfg.min_queries_per_client {
            let now = query_days[rng.below(query_days.len() as u64) as usize];
            let unsync = rng.below(2) == 0;
            let mix = serve::mix_specs(now, unsync);
            let query = rng.below(mix.len() as u64) as usize;
            let payload = serve::query_payload(&mix[query]);
            let t0 = Instant::now();
            let Ok(resp) = serve::request_on(&stream, &payload, cfg.timeout) else {
                // relaxed-ok: monotonic error counter, read only after join.
                transport_errors.fetch_add(1, Ordering::Relaxed);
                break; // the stream is no longer trustworthy
            };
            local_lat.push(t0.elapsed().as_nanos() as u64);
            let parsed = match serve::split_response(&resp) {
                Ok((serve::RESP_OK, body)) => {
                    let body = String::from_utf8_lossy(body);
                    (|| {
                        let epoch: u64 = serve::response_field(&body, "epoch")?.parse().ok()?;
                        let digest = serve::response_field(&body, "digest")?;
                        let digest = u64::from_str_radix(digest.strip_prefix("0x")?, 16).ok()?;
                        Some((epoch, digest))
                    })()
                }
                _ => None,
            };
            match parsed {
                Some((epoch, digest)) => local.push(Observation {
                    epoch,
                    query,
                    unsync,
                    now,
                    digest,
                }),
                None => {
                    // relaxed-ok: monotonic error counter, read only after join.
                    proto_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            n += 1;
        }
        latencies.lock().unwrap().extend(local_lat);
        local
    })?;
    let mut latency_ns = latencies.into_inner().unwrap();
    latency_ns.sort_unstable();
    Ok(SocketDriveReport {
        published: lp.published,
        observations: lp.observations,
        torn_reads: lp.torn_reads,
        mutations_ok: lp.mutations_ok,
        mutations_rejected: lp.mutations_rejected,
        proto_errors: proto_errors.into_inner(),
        transport_errors: transport_errors.into_inner(),
        latency_ns,
    })
}
