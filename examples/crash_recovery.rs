//! Crash-safe warehousing: write-ahead logging, atomic checkpoints, and
//! recovery after a torn write.
//!
//! Reduction is irreversible — an aggregate lost to a crash cannot be
//! recomputed from detail that was already merged away — so the durable
//! warehouse journals every load, sync, and specification change before
//! acknowledging it. This example loads the paper's ISP data durably,
//! simulates a crash that tears the last log record in half, and shows
//! recovery dropping the torn tail and restoring exactly the
//! acknowledged state.
//!
//! ```text
//! cargo run --release --example crash_recovery
//! ```

use std::sync::Arc;

use specdr::mdm::calendar::days_from_civil;
use specdr::mdm::{render_table, TableOptions};
use specdr::reduce::DataReductionSpec;
use specdr::spec::parse_action;
use specdr::subcube::ShardRouter;
use specdr::workload::{paper_mo, ACTION_A1, ACTION_A2};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("specdr-crash-demo-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let (mo, _) = paper_mo();
    let schema = Arc::clone(mo.schema());
    let a1 = parse_action(&schema, ACTION_A1)?;
    let a2 = parse_action(&schema, ACTION_A2)?;
    let spec = DataReductionSpec::new(schema, vec![a1, a2])?;

    // 1. Build the warehouse durably: every operation is in the log
    //    before it is acknowledged. One shard: the whole warehouse
    //    lives under `shard-000/`.
    let w = ShardRouter::create(spec.clone(), &dir, 1)?;
    w.bulk_load(&mo)?;
    w.sync(days_from_civil(2000, 6, 5))?;
    println!(
        "acknowledged {} operations; warehouse has {} facts",
        w.ops_durable(),
        w.len()
    );

    // 2. A checkpoint folds the log into an atomic snapshot (staged,
    //    fsynced, renamed — the directory is never a torn mixture).
    let epoch = w.checkpoint()?;
    println!("checkpoint published as epoch {epoch}");

    // 3. More work lands in the fresh log…
    w.sync(days_from_civil(2000, 11, 5))?;
    let wal = dir.join(format!("shard-000/wal-{epoch:06}.log"));
    drop(w);

    // 4. …and the machine dies mid-write: the last record is torn.
    let bytes = std::fs::read(&wal)?;
    std::fs::write(&wal, &bytes[..bytes.len() - 7])?;
    println!("simulated crash: tore {} trailing bytes off the log", 7);

    // 5. Recovery loads the checkpoint and replays the log tail; the
    //    torn record fails its CRC and is dropped — it was never
    //    acknowledged, so the result is exactly the committed state.
    let (w, report) = ShardRouter::recover(spec, &dir)?;
    println!(
        "recovered epoch {}: replayed {} records, dropped {} torn bytes",
        report.epoch, report.replayed, report.dropped_bytes
    );
    let whole = w.view_set().to_mo()?;
    println!("\nrecovered warehouse (reduced to 2000/6/5):\n");
    println!("{}", render_table(&whole, TableOptions::default()));

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
