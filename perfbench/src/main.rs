//! The repository benchmark: measured multi-adapter LoRA training and
//! online scheduling, end to end (untraced run) and per layer (traced run).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-het --seed 1 --seconds 10 --trace 0 [--threads N]
//! ```
//!
//! The last line of standard output is the result object; the line before
//! it records provenance (threads, host cores, SIMD path) and digests. The
//! process exits 1 when any output check fails and 2 on bad arguments.
//! See `README.md` next to this file for the workloads and metrics.

mod layers;
mod online;
mod passes;
mod report;
mod stats;
mod train;

use std::process::ExitCode;

use lorafusion_tensor::{pool, simd, Pool};

/// What every workload needs to know about the run.
pub struct Run {
    pub seed: u64,
    /// Minimum measured time; whole passes run until it is reached.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    pub threads: usize,
}

/// Reads the workload name and the run from the command line. More pool
/// threads than cores is refused; the default is every core.
fn parse_args() -> Result<(String, Run), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut threads = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u32>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)?),
            "--threads" => threads = Some(value.parse::<usize>().map_err(bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let host = pool::host_parallelism();
    let threads = threads.unwrap_or(host).max(1);
    if threads > host {
        return Err(format!(
            "{threads} threads requested but the host has {host} cores"
        ));
    }
    let run = Run {
        seed: seed.ok_or("--seed is required")?,
        seconds: f64::from(seconds.ok_or("--seconds is required")?.max(1)),
        trace,
        threads,
    };
    Ok((workload.ok_or("--workload is required")?, run))
}

fn main() -> ExitCode {
    let (name, run) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workload: fn(&Run) -> report::Outcome = match name.as_str() {
        "train-het" => |run| train::run(&train::HET, run),
        "train-head" => |run| train::run(&train::HEAD, run),
        "online-churn" => online::run,
        other => {
            eprintln!("perfbench: unknown workload {other} (train-het, train-head, online-churn)");
            return ExitCode::from(2);
        }
    };
    // Every parallel kernel dispatches to this pool; dropping it joins
    // its workers.
    let mut outcome = pool::with_pool(&Pool::new(run.threads), || workload(&run));
    outcome.metrics.insert("peak_rss_mb", report::peak_rss_mb());
    outcome.correct &= outcome.attempted > 0 && outcome.metrics.values().all(|v| v.is_finite());
    let mut meta = vec![
        ("workload", name),
        ("seed", run.seed.to_string()),
        ("trace", u8::from(run.trace).to_string()),
        ("threads", run.threads.to_string()),
        ("host_cores", pool::host_parallelism().to_string()),
        ("simd_path", simd::active_path().tag().to_string()),
    ];
    meta.append(&mut outcome.meta);
    outcome.meta = meta;
    let table = if run.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    println!("{}", report::meta_line(&outcome));
    println!("{}", report::result_line(&outcome, table));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: output check failed");
        ExitCode::from(1)
    }
}
