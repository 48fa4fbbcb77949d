//! specbench — the specdr end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path specbench/Cargo.toml -- \
//!     --workload <read-synced|read-unsync> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds a 2-shard `ShardRouter` from a seeded click-stream, serves it
//! in-process with `specdr::serve::serve`, drives it over TCP with one
//! closed-loop client, checks every answer, and prints one JSON line of
//! metrics last on stdout. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` prints the per-layer metrics, measured by timing the
//! public calls into each layer from this benchmark's own code. See
//! `specbench/METRICS.md` for every metric's definition.

mod data;
mod fs;
mod run;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

// The production build: the model-checking backend must not be compiled
// into the locks the daemon takes, or every number would measure it.
const _: () = assert!(
    !sdr_sync::MODEL_COMPILED,
    "specbench must link specdr without the `check` feature"
);

/// The workloads, each stressing different layers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The query mix over the wire on a synchronized warehouse.
    ReadSynced,
    /// The query mix with `unsync=1` while a month of facts is pending.
    ReadUnsync,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "read-synced" => Some(Workload::ReadSynced),
            "read-unsync" => Some(Workload::ReadUnsync),
            _ => None,
        }
    }

    /// The name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadSynced => "read-synced",
            Workload::ReadUnsync => "read-unsync",
        }
    }
}

/// Parsed command line.
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of the generated inputs and the request order.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

const USAGE: &str = "usage: specbench --workload <read-synced|read-unsync> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The commit the checkout was made from, when git can tell.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Drop the parent too when no concurrent run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("specbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"meta\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"cores\":{cores},\
         \"shards\":{},\"commit\":\"{}\",\"model_compiled\":{}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        run::SHARDS,
        commit(),
        sdr_sync::MODEL_COMPILED,
    );
    let work = WorkDir(Path::new(".bench_work").join(format!("run-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("specbench: cannot create {}: {e}", work.0.display());
        return ExitCode::from(1);
    }
    match run::run(&args, &work.0) {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("specbench: wrong answers or failed operations; see above");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("specbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload read-unsync --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::ReadUnsync, 7, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload read-synced --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload read-synced --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv(
            "--workload read-synced --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
    }
}
