//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_bel --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. Workloads (see `README.md` beside this
//! package for why each exists and what it should move):
//!
//! * `cold_bel` — the one-shot `ease recommend` path on R-MAT `.bel` graphs;
//! * `cold_text` — the same path on smaller R-MAT text edge lists;
//! * `warm_v2` — a warm daemon over one pipelined v2 connection, open loop
//!   then saturated;
//! * `fleet_http_churn` — two closed-loop HTTP clients against a router in
//!   front of two daemons, over a key space twice the fleet's cache.
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that reports the per-layer metrics and the tracing
//! overhead. The last line of standard output is the result as one JSON
//! object; the full result is saved under `.bench_out/`.

mod cold;
mod fleet;
mod layers;
mod report;
mod setup;
mod stats;
mod trace;
mod warm;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// A second workload seed, never used while the benchmark was tuned: a
/// claim measured on the usual seeds is confirmed on this one.
pub const HELD_OUT_SEED: u64 = 20_230_404;

/// No run may outlive this; a hung peer ends the process instead.
const WATCHDOG: Duration = Duration::from_secs(170);

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn out_stem(args: &Args) -> String {
    format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace))
}

/// Where a traced run writes its spans (JSON lines).
pub fn spans_path(args: &Args) -> PathBuf {
    PathBuf::from(".bench_out").join(format!("{}.spans.jsonl", out_stem(args)))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, workload, dir, seed] = argv.as_slice() {
        if flag == "--prepare" {
            let result = seed
                .parse::<u64>()
                .map_err(|e| e.into())
                .and_then(|seed| setup::prepare_child(workload, std::path::Path::new(dir), seed));
            return match result {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench --prepare: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <cold_bel|cold_text|warm_v2|fleet_http_churn> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run exceeded {} s, aborting", WATCHDOG.as_secs());
        std::process::exit(3);
    });
    let run = match args.workload.as_str() {
        "cold_bel" => cold::run_bel,
        "cold_text" => cold::run_text,
        "warm_v2" => warm::run,
        "fleet_http_churn" => fleet::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let mut report = report::Report::default();
    report.param("workload", &args.workload);
    report.param("seconds", args.seconds);
    report.param("trace", u8::from(args.trace));
    setup::metadata(&mut report, args.seed);
    let result =
        setup::WorkDir::create(&out_stem(&args)).and_then(|work| run(&args, &work, &mut report));
    if let Err(e) = result {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    let out = PathBuf::from(".bench_out").join(format!("{}.json", out_stem(&args)));
    if let Err(e) = report.finish(args.trace, &out) {
        eprintln!("perfbench: writing the result failed: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
