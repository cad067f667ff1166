//! `perfbench`: the in-process half of the simsym benchmark.
//!
//! `perfbench/run.py` drives the end-to-end runs of the batch workloads
//! itself and calls this program for the rest:
//!
//! ```text
//! perfbench setup <verify-quotient|soak-journal>
//! perfbench trace --workload W --bin PATH --nosync PATH --work DIR --seed N --seconds S
//! perfbench sync-probe DIR
//! ```
//!
//! `setup` prints `{"setup_s": .., "reps": ..}`; `trace` prints one JSON
//! result object (see [`report::Report`]); `sync-probe` prints the
//! journal-sync and artifact-write microseconds measured in `DIR`.

mod farm;
mod layers;
mod report;
mod spans;
mod stats;
mod stream;
mod trace;

use farm::Bins;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: String,
    bins: Bins,
    work: PathBuf,
    seed: u64,
    seconds: f64,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut bin = None;
    let mut nosync = None;
    let mut work = None;
    let mut seed = None;
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--bin" => bin = Some(PathBuf::from(value)),
            "--nosync" => nosync = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                );
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        bins: Bins {
            simsym: bin.ok_or("--bin is required")?,
            nosync: nosync.ok_or("--nosync is required")?,
        },
        work: work.ok_or("--work is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
    })
}

fn run(args: &[String]) -> Result<String, String> {
    let (cmd, rest) = args
        .split_first()
        .ok_or("usage: perfbench <setup|trace|sync-probe> ...")?;
    match cmd.as_str() {
        "setup" => {
            let [workload] = rest else {
                return Err("usage: perfbench setup <workload>".into());
            };
            let setup_s = layers::setup_seconds(workload)?;
            Ok(format!(
                "{{\"setup_s\": {setup_s}, \"reps\": {}}}",
                layers::SETUP_REPS
            ))
        }
        "trace" => {
            let a = parse(rest)?;
            let spans = a.work.join("spans.ndjson");
            let report = trace::run(
                &a.workload,
                &a.bins,
                &a.work,
                a.seed,
                a.seconds,
                Path::new(&spans),
            )?;
            Ok(report.to_json())
        }
        "sync-probe" => {
            let [dir] = rest else {
                return Err("usage: perfbench sync-probe DIR".into());
            };
            let (journal_us, artifact_us) = trace::sync_probe(Path::new(dir))?;
            Ok(format!("{journal_us} {artifact_us}"))
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
