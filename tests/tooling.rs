//! Integration tests for the tooling layer: persistence, the fluent query
//! builder, explanations, table rendering, and workload soundness.

use std::sync::Arc;

use specdr::mdm::calendar::days_from_civil;
use specdr::mdm::{render_table, MeasureId, TableOptions};
use specdr::query::{AggApproach, Query, SelectMode};
use specdr::reduce::{reduce, DataReductionSpec};
use specdr::spec::{explain_action, explain_origin, parse_action, parse_pexp};
use specdr::subcube::ShardRouter;
use specdr::workload::{
    generate, paper_mo, prover_heavy_policy, retention_policy, ClickstreamConfig, ACTION_A1,
    ACTION_A2,
};

fn paper_spec() -> (specdr::mdm::Mo, DataReductionSpec) {
    let (mo, _) = paper_mo();
    let schema = Arc::clone(mo.schema());
    let a1 = parse_action(&schema, ACTION_A1).unwrap();
    let a2 = parse_action(&schema, ACTION_A2).unwrap();
    (mo, DataReductionSpec::new(schema, vec![a1, a2]).unwrap())
}

#[test]
fn subcube_persistence_roundtrip() {
    let (mo, spec) = paper_spec();
    let dir = std::env::temp_dir().join(format!("specdr-test-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let m = ShardRouter::create(spec.clone(), &dir, 1).unwrap();
    m.bulk_load(&mo).unwrap();
    m.sync(days_from_civil(2000, 11, 5)).unwrap();
    m.checkpoint().unwrap();
    let (loaded, _) = ShardRouter::recover(spec, &dir).unwrap();
    assert_eq!(loaded.len(), m.len());
    let a = m.view_set().to_mo().unwrap();
    let b = loaded.view_set().to_mo().unwrap();
    let mut ra: Vec<String> = a.facts().map(|f| a.render_fact(f)).collect();
    let mut rb: Vec<String> = b.facts().map(|f| b.render_fact(f)).collect();
    ra.sort();
    rb.sort();
    assert_eq!(ra, rb);
    // The directory's own (manifest) spec is authoritative, but it must
    // parse against the caller's schema: a foreign schema fails.
    let retail = specdr::workload::generate_retail(&specdr::workload::RetailConfig {
        sales_per_day: 0,
        ..Default::default()
    });
    let foreign = DataReductionSpec::new(Arc::clone(&retail.schema), vec![]).unwrap();
    assert!(ShardRouter::recover(foreign, &dir).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn persistence_missing_dir_fails() {
    let (_, spec) = paper_spec();
    assert!(ShardRouter::recover(spec, "/nonexistent/specdr-dir").is_err());
}

#[test]
fn query_builder_composes_operators() {
    let (mo, spec) = paper_spec();
    let now = days_from_civil(2000, 11, 5);
    let red = reduce(&mo, &spec, now).unwrap();
    let result = Query::new()
        .filter(parse_pexp(red.schema(), "URL.domain_grp = .com").unwrap())
        .mode(SelectMode::Conservative)
        .project(&["Time", "URL"], &["Number_of", "Dwell_time"])
        .roll_up(&["Time.year", "URL.domain_grp"])
        .approach(AggApproach::Availability)
        .run(&red, now)
        .unwrap();
    let mut rows: Vec<String> = result.facts().map(|f| result.render_fact(f)).collect();
    rows.sort();
    assert_eq!(
        rows,
        vec!["fact(1999, .com | 4, 3178)", "fact(2000, .com | 2, 955)"]
    );
    // An empty query is the identity.
    let id = Query::new().run(&red, now).unwrap();
    assert_eq!(id.len(), red.len());
    // Builder surfaces resolution errors.
    assert!(Query::new().roll_up(&["Nope.x"]).run(&red, now).is_err());
}

#[test]
fn explanations_are_english() {
    let (mo, spec) = paper_spec();
    let schema = mo.schema();
    let a1 = spec.actions()[0].1.clone();
    let text = explain_action(&a1, schema);
    assert!(
        text.contains("aggregates facts to (Time.month, URL.domain)"),
        "{text}"
    );
    assert!(text.contains(".com"), "{text}");
    assert!(text.contains("shrinking by itself"), "{text}");
    let a2 = spec.actions()[1].1.clone();
    let t2 = explain_action(&a2, schema);
    assert!(t2.contains("growing by itself"), "{t2}");
    // Origin explanations.
    let now = days_from_civil(2000, 11, 5);
    let red = reduce(&mo, &spec, now).unwrap();
    let mut seen_user = false;
    let mut seen_action = false;
    for f in red.facts() {
        let o = red.store().origin[f.index()];
        let e = explain_origin(o, spec.actions(), schema);
        if e.contains("inserted by a user") {
            seen_user = true;
        }
        if e.contains("aggregated by action") {
            seen_action = true;
        }
    }
    assert!(seen_user && seen_action);
    assert!(explain_origin(999, spec.actions(), schema).contains("since-deleted"));
}

#[test]
fn table_rendering_shows_paper_data() {
    let (mo, _) = paper_mo();
    let t = render_table(&mo, TableOptions::default());
    assert!(t.contains("Time"), "{t}");
    assert!(t.contains("Dwell_time"));
    assert!(t.contains("1999/12/4"));
    assert!(t.contains("2335"));
    assert_eq!(t.lines().count(), 2 + 7);
}

#[test]
fn prover_heavy_policy_is_sound() {
    // Cross-pairs have unordered granularities; the prover must verify
    // their predicates never overlap — and accept the set.
    let cs = generate(&ClickstreamConfig {
        clicks_per_day: 0,
        n_domain_grps: 4,
        ..Default::default()
    });
    let actions: Vec<_> = prover_heavy_policy(4)
        .iter()
        .map(|s| parse_action(&cs.schema, s).unwrap())
        .collect();
    DataReductionSpec::new(Arc::clone(&cs.schema), actions).unwrap();
    // Making two groups share a predicate breaks it: same .com group with
    // both grains overlaps and is unordered → rejected.
    let a = parse_action(
        &cs.schema,
        "p(a[Time.quarter, URL.domain] o[URL.domain_grp = .com AND Time.quarter <= NOW - 8 quarters](O))",
    )
    .unwrap();
    let b = parse_action(
        &cs.schema,
        "p(a[Time.month, URL.domain_grp] o[URL.domain_grp = .com AND Time.month <= NOW - 24 months](O))",
    )
    .unwrap();
    assert!(DataReductionSpec::new(Arc::clone(&cs.schema), vec![a, b]).is_err());
}

#[test]
fn retention_policy_end_to_end_totals() {
    // A medium synthetic warehouse: the reduced MO answers the same
    // top-level totals as the raw one at every sweep point.
    let cs = generate(&ClickstreamConfig {
        clicks_per_day: 60,
        start: (1999, 1, 1),
        end: (2000, 6, 28),
        ..Default::default()
    });
    let actions: Vec<_> = retention_policy(6, 36)
        .iter()
        .map(|s| parse_action(&cs.schema, s).unwrap())
        .collect();
    let spec = DataReductionSpec::new(Arc::clone(&cs.schema), actions).unwrap();
    let raw_total: i64 = cs.mo.facts().map(|f| cs.mo.measure(f, MeasureId(3))).sum();
    for k in 0..6 {
        let now = specdr::mdm::time::shift_day(
            days_from_civil(1999, 9, 1),
            specdr::mdm::Span::new(6 * k, specdr::mdm::TimeUnit::Month),
            1,
        );
        let red = reduce(&cs.mo, &spec, now).unwrap();
        let total: i64 = red.facts().map(|f| red.measure(f, MeasureId(3))).sum();
        assert_eq!(total, raw_total);
    }
}

// --- checkpoint loading error paths: every failure names the file and cause ---

/// Checkpoints a small one-shard warehouse under a unique temp dir and
/// returns the spec that wrote it, the directory, and the live
/// checkpoint directory. With `sync: false` all facts stay at day level
/// in the bottom cube.
fn saved_dir(tag: &str, sync: bool) -> (DataReductionSpec, std::path::PathBuf, std::path::PathBuf) {
    let (mo, spec) = paper_spec();
    let dir = std::env::temp_dir().join(format!("specdr-errs-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let m = ShardRouter::create(spec.clone(), &dir, 1).unwrap();
    m.bulk_load(&mo).unwrap();
    if sync {
        m.sync(days_from_civil(2000, 11, 5)).unwrap();
    }
    m.checkpoint().unwrap();
    let ckpt = dir.join("shard-000").join("ckpt-000001");
    (spec, dir, ckpt)
}

/// Recovers `dir`, expecting a storage error.
fn load_err(spec: DataReductionSpec, dir: &std::path::Path) -> String {
    storage_msg(
        ShardRouter::recover(spec, dir)
            .err()
            .expect("load should fail"),
    )
}

fn storage_msg(e: specdr::subcube::SubcubeError) -> String {
    match e {
        specdr::subcube::SubcubeError::Storage(msg) => msg,
        other => panic!("expected SubcubeError::Storage, got: {other}"),
    }
}

#[test]
fn load_from_dir_reports_missing_cube_file() {
    let (spec, dir, ckpt) = saved_dir("missing", true);
    let victim = ckpt.join("cube-1.sdr");
    std::fs::remove_file(&victim).unwrap();
    let msg = load_err(spec, &dir);
    assert!(msg.contains(&victim.display().to_string()), "{msg}");
    assert!(msg.contains("No such file or directory"), "{msg}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_from_dir_reports_corrupt_cube_header() {
    let (spec, dir, ckpt) = saved_dir("corrupt", true);
    let victim = ckpt.join("cube-0.sdr");
    let mut bytes = std::fs::read(&victim).unwrap();
    for b in bytes.iter_mut().take(8) {
        *b ^= 0xFF;
    }
    std::fs::write(&victim, &bytes).unwrap();
    let msg = load_err(spec, &dir);
    assert!(msg.contains(&victim.display().to_string()), "{msg}");
    assert!(msg.contains("corrupt table: bad magic"), "{msg}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_from_dir_rejects_foreign_granularity_cube() {
    // Day-level facts smuggled into a non-bottom cube slot must be
    // rejected: the file parses, but its contents belong to a different
    // layout.
    let (spec, dir, ckpt) = saved_dir("foreign", false);
    std::fs::copy(ckpt.join("cube-0.sdr"), ckpt.join("cube-1.sdr")).unwrap();
    let msg = load_err(spec, &dir);
    assert!(
        msg.contains(
            "fact at foreign granularity — was the directory written \
             with a different specification?"
        ),
        "{msg}"
    );
    assert!(msg.contains("cube-1.sdr"), "{msg}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_from_dir_rejects_foreign_spec_with_hash_message() {
    // The manifest's spec text is authoritative on recovery and its hash
    // cross-checks it: forge a manifest whose text is a foreign spec
    // (only a2) under the original hash.
    let (spec, dir, ckpt) = saved_dir("spechash", true);
    let (schema2, _) = specdr::workload::paper_schema();
    let only_a2 = parse_action(&schema2, ACTION_A2).unwrap();
    let small = DataReductionSpec::new(schema2, vec![only_a2]).unwrap();
    let man_path = ckpt.join("MANIFEST");
    let mut man =
        specdr::subcube::Manifest::decode(&man_path, &std::fs::read(&man_path).unwrap()).unwrap();
    man.spec_text = small.render();
    man.next_action_id = small.next_action_id();
    std::fs::write(&man_path, man.encode()).unwrap();
    let msg = load_err(spec, &dir);
    assert!(
        msg.contains(
            "specification hash mismatch — was the directory written \
             with a different specification?"
        ),
        "{msg}"
    );
    assert!(msg.contains("MANIFEST"), "{msg}");
    // The message shows what spec the directory was written with.
    assert!(msg.contains("on disk:"), "{msg}");
    assert!(msg.contains("a0 = p("), "{msg}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_from_dir_rejects_extra_cubes_on_disk() {
    let (spec, dir, ckpt) = saved_dir("extra", true);
    // Forge a manifest announcing one more cube than the layout defines
    // (re-encoded, so the CRC is valid and the count check is what fires).
    let man_path = ckpt.join("MANIFEST");
    let mut man =
        specdr::subcube::Manifest::decode(&man_path, &std::fs::read(&man_path).unwrap()).unwrap();
    man.cube_count += 1;
    std::fs::write(&man_path, man.encode()).unwrap();
    let msg = load_err(spec, &dir);
    assert!(
        msg.contains("more cubes on disk than the specification defines"),
        "{msg}"
    );
    assert!(msg.contains("cube-3.sdr"), "{msg}");
    std::fs::remove_dir_all(&dir).ok();
}

// --- CLI behavior, driven through the real binary ---

fn specdr_bin() -> std::process::Command {
    std::process::Command::new(env!("CARGO_BIN_EXE_specdr"))
}

#[test]
fn cli_rejects_unknown_flags() {
    // Unknown flag: non-zero exit, error names the flag and hints at help.
    let out = specdr_bin()
        .args(["simulate", "--bogus-flag"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--bogus-flag"), "{err}");
    assert!(err.contains("specdr help"), "{err}");
    // Stray positional arguments are rejected too.
    let out = specdr_bin()
        .args(["query", "--months", "6", "unexpected"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unexpected"));
    // A boolean switch given a value is rejected.
    let out = specdr_bin()
        .args(["simulate", "--sessions=yes"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // Unknown subcommands still fail.
    let out = specdr_bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn cli_metrics_json_is_parseable_and_complete() {
    let out = specdr_bin()
        .args([
            "simulate",
            "--months",
            "12",
            "--clicks",
            "20",
            "--metrics=json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let metric_lines: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with('{') && l.contains("\"kind\":\""))
        .collect();
    assert!(!metric_lines.is_empty(), "no metric lines in:\n{stdout}");
    let has = |kind: &str, name_part: &str| {
        metric_lines
            .iter()
            .any(|l| l.contains(&format!("\"kind\":\"{kind}\"")) && l.contains(name_part))
    };
    // ≥1 counter, ≥1 histogram with percentiles, and span timings from
    // each of sdr-reduce, sdr-subcube, and sdr-query.
    assert!(has("counter", "reduce.facts_kept"), "{stdout}");
    assert!(
        has("histogram", "reduce.group_members")
            && metric_lines.iter().any(|l| l.contains("\"p99\":")),
        "{stdout}"
    );
    assert!(has("span", "\"name\":\"reduce."), "{stdout}");
    assert!(has("span", "\"name\":\"subcube."), "{stdout}");
    assert!(has("span", "\"name\":\"query."), "{stdout}");
    // Every metric line is balanced-brace JSON with a name or seq.
    for l in &metric_lines {
        assert!(l.ends_with('}'), "{l}");
        assert!(l.contains("\"name\":") || l.contains("\"seq\":"), "{l}");
    }
}

#[test]
fn cli_stats_prints_snapshot_table() {
    let out = specdr_bin()
        .args(["stats", "--months", "6", "--clicks", "10"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("counters:"), "{stdout}");
    assert!(stdout.contains("reduce.facts_scanned"), "{stdout}");
    assert!(stdout.contains("spans:"), "{stdout}");
    assert!(stdout.contains("subcube.sync"), "{stdout}");
}

#[test]
fn stats_json_golden_schema_is_stable() {
    // Golden test for the JSONL metric schema (documented on
    // `Snapshot::to_jsonl` and in DESIGN.md § Introspection): fixed kind
    // order, names sorted within a kind, fixed key order per line, and
    // the exact metric-name sets emitted by the deterministic
    // 6-month × 10-click pipeline — so the schema cannot silently
    // drift. Counts and durations vary with the machine; the names ARE
    // the schema.
    let out = specdr_bin()
        .args([
            "stats", "--months", "6", "--clicks", "10", "--format", "json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert!(!lines.is_empty(), "no metric lines in:\n{stdout}");

    // 1. Kinds appear in the fixed order.
    let rank = |l: &str| {
        ["counter", "gauge", "histogram", "span", "event", "trace"]
            .iter()
            .position(|k| l.starts_with(&format!("{{\"kind\":\"{k}\"")))
            .unwrap_or_else(|| panic!("line with unknown kind: {l}"))
    };
    let ranks: Vec<usize> = lines.iter().map(|l| rank(l)).collect();
    let mut sorted_ranks = ranks.clone();
    sorted_ranks.sort_unstable();
    assert_eq!(ranks, sorted_ranks, "kind order drifted:\n{stdout}");
    // All six kinds are exercised by this pipeline.
    for k in 0..6 {
        assert!(ranks.contains(&k), "kind #{k} missing:\n{stdout}");
    }

    // 2. Keys within a line appear in the documented order.
    for l in &lines {
        let keys: &[&str] = match rank(l) {
            0 | 1 => &["\"kind\":", "\"name\":", "\"value\":"],
            2 | 3 => &[
                "\"kind\":",
                "\"name\":",
                "\"count\":",
                "\"sum\":",
                "\"min\":",
                "\"max\":",
                "\"p50\":",
                "\"p90\":",
                "\"p99\":",
            ],
            4 => &[
                "\"kind\":",
                "\"seq\":",
                "\"at_ns\":",
                "\"name\":",
                "\"detail\":",
            ],
            _ => &[
                "\"kind\":",
                "\"id\":",
                "\"parent\":",
                "\"name\":",
                "\"tid\":",
                "\"start_ns\":",
                "\"dur_ns\":",
                "\"attrs\":",
            ],
        };
        let mut at = 0usize;
        for k in keys {
            match l[at..].find(k) {
                Some(i) => at += i + k.len(),
                None => panic!("key {k} missing or out of order in {l}"),
            }
        }
    }

    // 3. Named metrics are sorted by name within each kind.
    let name_of = |l: &str| {
        l.split("\"name\":\"")
            .nth(1)
            .and_then(|r| r.split('"').next())
            .map(str::to_string)
            .unwrap_or_else(|| panic!("no name in {l}"))
    };
    let names_of_kind = |kind: &str| -> Vec<String> {
        lines
            .iter()
            .filter(|l| l.starts_with(&format!("{{\"kind\":\"{kind}\"")))
            .map(|l| name_of(l))
            .collect()
    };
    for kind in ["counter", "gauge", "histogram", "span"] {
        let names = names_of_kind(kind);
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "{kind} names not sorted:\n{stdout}");
    }

    // 4. The golden name sets, including the PR 6 trace counters. The
    // in-memory warehouse is a one-shard router over a MemFs, so the
    // pipeline also journals: `durable.*`, `wal.*`, `storage.serialize*`
    // and the router's `shard.*` spans.
    assert_eq!(
        names_of_kind("counter"),
        [
            "durable.checkpoint.bytes",
            "durable.checkpoint.count",
            "durable.checkpoint.cubes",
            "obs.trace.spans_closed",
            "plan.cubes_scanned",
            "plan.cubes_skipped",
            "plan.skip.empty",
            "query.aggregate.availability.cells_visited",
            "query.aggregate.cells_produced",
            "query.aggregate.kernel.distinct_cells",
            "query.aggregate.kernel.distinct_dim_values",
            "query.select.cells_kept",
            "query.select.cells_visited",
            "reduce.action.a0.facts_raised",
            "reduce.facts_collapsed",
            "reduce.facts_kept",
            "reduce.facts_scanned",
            "reduce.kernel.chunks",
            "reduce.kernel.distinct_cells",
            "storage.encoded_bytes",
            "storage.rows_sealed",
            "storage.serialized_bytes",
            "subcube.bulk_load.facts",
            "subcube.publish.count",
            "subcube.query.fanout",
            "subcube.sync.distinct_cells",
            "subcube.sync.kept",
            "subcube.sync.merged",
            "subcube.sync.migrated",
            "subcube.sync.migrated_from.K0",
            "wal.bytes_appended",
            "wal.records_appended",
        ],
        "counter name set drifted:\n{stdout}"
    );
    assert_eq!(names_of_kind("gauge"), ["subcube.epoch"], "{stdout}");
    assert_eq!(
        names_of_kind("histogram"),
        [
            "reduce.group_members",
            "storage.segment_bytes",
            "wal.record_bytes"
        ],
        "{stdout}"
    );
    assert_eq!(
        names_of_kind("span"),
        [
            "durable.checkpoint",
            "plan.query",
            "query.aggregate",
            "query.select",
            "reduce.kernel.chunk",
            "reduce.reduce",
            "shard.bulk_load",
            "shard.query",
            "shard.sync",
            "storage.encode",
            "storage.serialize",
            "subcube.age.schedule",
            "subcube.bulk_load",
            "subcube.query",
            "subcube.query.subquery",
            "subcube.sync",
            "subcube.sync.rebuild",
            "subcube.sync.scan",
            "wal.append",
        ],
        "span name set drifted:\n{stdout}"
    );
}

#[test]
fn cli_checkpoint_then_recover_roundtrips() {
    let dir = std::env::temp_dir().join(format!("specdr-cli-dur-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let dir_s = dir.to_str().unwrap();
    let out = specdr_bin()
        .args([
            "checkpoint",
            "--dir",
            dir_s,
            "--months",
            "6",
            "--clicks",
            "10",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("checkpoint published"), "{stdout}");
    assert!(stdout.contains("epoch      = 1"), "{stdout}");
    assert!(stdout.contains("wal hwm    = 2 ops"), "{stdout}");
    assert!(dir.join("SHARDS").exists());
    assert!(dir.join("shard-000").join("CURRENT").exists());
    assert!(dir
        .join("shard-000")
        .join("ckpt-000001")
        .join("MANIFEST")
        .exists());

    let out = specdr_bin()
        .args(["recover", "--dir", dir_s])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("recovered"), "{stdout}");
    assert!(stdout.contains("epoch           = 1"), "{stdout}");
    assert!(
        stdout.contains("replayed        = 0 WAL records"),
        "{stdout}"
    );
    assert!(stdout.contains("ops durable     = 2"), "{stdout}");
    assert!(stdout.contains("facts across"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_recover_fails_on_missing_directory() {
    let out = specdr_bin()
        .args(["recover", "--dir", "/nonexistent/specdr-warehouse"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("SHARDS"), "{err}");
}

#[test]
fn cli_checkpoint_requires_dir_flag() {
    let out = specdr_bin().arg("checkpoint").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--dir"));
}

#[test]
fn cli_runs_without_metrics_by_default() {
    // No --metrics flag → no metric lines in the output at all.
    let out = specdr_bin()
        .args(["simulate", "--months", "6", "--clicks", "10"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("\"kind\":"), "{stdout}");
    assert!(!stdout.contains("metrics:"), "{stdout}");
}

// ---------------------------------------------------------------------
// `specdr lint`
// ---------------------------------------------------------------------

fn lint_spec_file(tag: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("specdr-lint-{tag}-{}.spec", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn cli_lint_default_policy_is_clean() {
    let out = specdr_bin().arg("lint").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("clean"), "{stdout}");
}

#[test]
fn cli_lint_denied_finding_is_nonzero_exit() {
    // Incomparable grains with overlapping windows: a NonCrossing (L004)
    // violation, denied by default.
    let path = lint_spec_file(
        "crossing",
        "-- seeded defect: windows overlap at incomparable grains\n\
         a[Time.quarter, URL.domain] o[Time.quarter <= 1999Q4](O);\n\
         a[Time.month, URL.domain_grp] o[Time.month <= 1999/12](O)\n",
    );
    let out = specdr_bin()
        .args([
            "lint",
            "--spec-file",
            path.to_str().unwrap(),
            "--schema",
            "paper",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "denied finding must fail the run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[L004]"), "{stdout}");
    assert!(stdout.contains('^'), "caret rendering expected: {stdout}");
    assert!(stdout.contains("counterexample"), "{stdout}");

    // --format=json: one machine-readable object on stdout.
    let out = specdr_bin()
        .args([
            "lint",
            "--spec-file",
            path.to_str().unwrap(),
            "--schema",
            "paper",
            "--format=json",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("{\"file\":"), "{stdout}");
    assert!(stdout.contains("\"code\":\"L004\""), "{stdout}");
    assert!(stdout.contains("\"errors\":1"), "{stdout}");

    // --allow L004 suppresses the finding and the run passes.
    let out = specdr_bin()
        .args([
            "lint",
            "--spec-file",
            path.to_str().unwrap(),
            "--schema",
            "paper",
            "--allow",
            "L004",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    std::fs::remove_file(path).ok();
}

#[test]
fn cli_lint_deny_warnings_promotes_exit_code() {
    // An unsatisfiable predicate is a warning by default…
    let path = lint_spec_file(
        "unsat",
        "a[Time.month, URL.domain] o[Time.month <= 1999/12 AND Time.month > 2000/6](O)\n",
    );
    let base = [
        "lint",
        "--spec-file",
        path.to_str().unwrap(),
        "--schema",
        "paper",
    ];
    let out = specdr_bin().args(base).output().unwrap();
    assert!(out.status.success(), "warnings alone pass");
    assert!(String::from_utf8_lossy(&out.stdout).contains("warning[L001]"));

    // …and fails the run under --deny warnings.
    let out = specdr_bin()
        .args(base)
        .args(["--deny", "warnings"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("error[L001]"));

    // Unknown lint codes are rejected.
    let out = specdr_bin()
        .args(base)
        .args(["--deny", "L999"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("L999"));
    std::fs::remove_file(path).ok();
}

// ---------------------------------------------------------------------
// `specdr age` (ISSUE 7: continuous aging)
// ---------------------------------------------------------------------

#[test]
fn cli_age_flag_order_is_irrelevant() {
    // The same run with --until first and last: both succeed and print
    // byte-identical output (the generator is seeded).
    let first = specdr_bin()
        .args([
            "age", "--until", "2003/3/1", "--months", "24", "--clicks", "5",
        ])
        .output()
        .unwrap();
    assert!(
        first.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&first.stderr)
    );
    let last = specdr_bin()
        .args([
            "age", "--months", "24", "--clicks", "5", "--until", "2003/3/1",
        ])
        .output()
        .unwrap();
    assert!(last.status.success());
    assert_eq!(first.stdout, last.stdout);
    let stdout = String::from_utf8_lossy(&first.stdout);
    assert!(stdout.contains("synchronized to 2000/12/28"), "{stdout}");
    assert!(stdout.contains("aged to 2003/3/1:"), "{stdout}");
    assert!(stdout.contains("ticks="), "{stdout}");
    assert!(stdout.contains("cubes_skipped="), "{stdout}");
}

#[test]
fn cli_age_requires_until() {
    let out = specdr_bin().arg("age").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--until"), "{err}");
}

#[test]
fn cli_age_rejects_stale_until_with_typed_error() {
    // Aging backwards is a typed, actionable error — exact message pinned.
    let out = specdr_bin()
        .args([
            "age", "--until", "2000/1/1", "--months", "24", "--clicks", "5",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(
            "specdr: cannot age to 2000/1/1: the warehouse is already \
             synchronized to 2000/12/28 (aging is monotone; reduction \
             cannot be undone)"
        ),
        "{err}"
    );
}

#[test]
fn cli_age_follow_ticks_through_the_schedule() {
    let out = specdr_bin()
        .args([
            "age", "--until", "2001/3/1", "--follow", "--tick", "3", "--months", "24", "--clicks",
            "5",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("tick 1: "), "{stdout}");
    assert!(stdout.contains("tick 3: "), "{stdout}");
}

#[test]
fn cli_explain_age_renders_and_rejects_mixed_modes() {
    let out = specdr_bin()
        .args([
            "explain", "--age", "--until", "2001/6/1", "--months", "24", "--clicks", "5",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("aging pass"), "{stdout}");
    assert!(stdout.contains("ticks="), "{stdout}");
    // --age is exclusive with the other explain modes.
    let out = specdr_bin()
        .args(["explain", "--age", "--query"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("pass at most one of --query, --reduce, --age"),
        "{err}"
    );
}

// --- atomic-ordering audit (source scan) ---

/// Every atomic on the publish/epoch/serve paths must say *why* its
/// `Ordering` is what it is, and `Relaxed` is denied there unless the
/// site is explicitly allowlisted with a `relaxed-ok:` comment stating
/// the invariant that makes relaxation safe.
#[test]
fn atomic_orderings_carry_invariant_comments() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    // The audited protocol surfaces. `crates/sync` itself is exempt: it
    // is the shim that *implements* the orderings.
    let mut files = vec![
        root.join("src/serve.rs"),
        root.join("src/driver.rs"),
        root.join("src/bin/specdr.rs"),
    ];
    for entry in std::fs::read_dir(root.join("crates/subcube/src")).unwrap() {
        let p = entry.unwrap().path();
        if p.extension().is_some_and(|e| e == "rs") {
            files.push(p);
        }
    }

    let mut violations = Vec::new();
    for file in &files {
        let src = std::fs::read_to_string(file).unwrap();
        let lines: Vec<&str> = src.lines().collect();
        let name = file.strip_prefix(root).unwrap().display().to_string();

        // The epoch-publish and serve paths must use the sdr-sync shim,
        // whose model backend is how `specdr check` sees their steps;
        // bare std atomics would be invisible to the checker.
        let audited_protocol_path = name.starts_with("crates/subcube") || name == "src/serve.rs";
        if audited_protocol_path && src.contains("std::sync::atomic") {
            violations.push(format!(
                "{name}: uses std::sync::atomic directly; route it through sdr_sync::atomic"
            ));
        }

        for (i, line) in lines.iter().enumerate() {
            if !line.contains("Ordering::") || line.trim_start().starts_with("//") {
                continue;
            }
            let nearby_comment = |needle: &str| {
                line.contains(needle)
                    || lines[i.saturating_sub(3)..i]
                        .iter()
                        .any(|l| l.trim_start().starts_with("//") && l.contains(needle))
            };
            if !nearby_comment("//") {
                violations.push(format!(
                    "{name}:{}: `Ordering::` use without an invariant comment",
                    i + 1
                ));
            }
            if line.contains("Ordering::Relaxed") && !nearby_comment("relaxed-ok") {
                violations.push(format!(
                    "{name}:{}: bare `Ordering::Relaxed` outside the `relaxed-ok:` allowlist",
                    i + 1
                ));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "atomic-ordering audit failed:\n  {}",
        violations.join("\n  ")
    );
}

// --- `specdr check` CLI ---

#[test]
fn cli_check_help_is_accepted_everywhere() {
    // `--help` short-circuits strict flag validation for every
    // subcommand and exits 0 — including `check`, whatever other flags
    // surround it.
    for args in [
        vec!["check", "--help"],
        vec!["check", "-h"],
        vec!["check", "--protocol", "serve", "--help"],
        vec!["lint", "--help"],
        vec!["serve", "--help"],
    ] {
        let out = specdr_bin().args(&args).output().unwrap();
        assert!(out.status.success(), "{args:?} failed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage: specdr"), "{args:?}: {stdout}");
        assert!(stdout.contains("check [--protocol"), "{args:?}: {stdout}");
    }
}

#[test]
fn cli_check_rejects_unknown_flags_and_values() {
    let out = specdr_bin()
        .args(["check", "--frobnicate"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown flag `--frobnicate` for `specdr check`"),
        "{err}"
    );
    assert!(err.contains("specdr help"), "{err}");

    let out = specdr_bin()
        .args(["check", "--protocol", "tcp"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown protocol `tcp`") && err.contains("group-commit"),
        "{err}"
    );

    let out = specdr_bin()
        .args(["check", "--mutate", "nonsense"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown mutation `nonsense`") && err.contains("gate-toctou"),
        "{err}"
    );

    // A value flag with a missing value is an error, not a hang.
    let out = specdr_bin().args(["check", "--budget"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("flag `--budget` expects a value"));
}

#[test]
fn cli_check_flag_order_is_irrelevant() {
    let a = specdr_bin()
        .args(["check", "--protocol", "serve", "--budget", "5000"])
        .output()
        .unwrap();
    let b = specdr_bin()
        .args(["check", "--budget", "5000", "--protocol", "serve"])
        .output()
        .unwrap();
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    assert!(b.status.success(), "{}", String::from_utf8_lossy(&b.stderr));
    // Exploration is deterministic; only wall-clock differs. Strip the
    // trailing `in <time>` and the transcripts must be identical.
    let strip = |out: &[u8]| -> Vec<String> {
        String::from_utf8_lossy(out)
            .lines()
            .map(|l| l.split(" in ").next().unwrap().to_string())
            .collect()
    };
    assert_eq!(strip(&a.stdout), strip(&b.stdout));
}

#[test]
fn cli_check_proves_serve_protocol() {
    let out = specdr_bin()
        .args(["check", "--protocol", "serve"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("check serve:"), "{stdout}");
    assert!(stdout.contains("schedules explored"), "{stdout}");
    assert!(stdout.contains("(exhaustive)"), "{stdout}");
}

#[test]
fn cli_check_catches_seeded_mutation_with_minimal_schedule() {
    let out = specdr_bin()
        .args(["check", "--mutate", "gate-toctou"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "a seeded bug must fail the check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[C001]"), "{stdout}");
    assert!(stdout.contains("gate admitted past its cap"), "{stdout}");
    assert!(stdout.contains("minimal schedule:"), "{stdout}");
    assert!(stdout.contains("--> <schedule>:"), "{stdout}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("1 protocol counterexample found"), "{err}");
}
