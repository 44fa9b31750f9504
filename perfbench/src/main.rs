//! The hppa-muldiv benchmark: one named workload per process.
//!
//! ```sh
//! perfbench --workload <compile_cold|replay_batch|replay_calls> \
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Every output is checked against arithmetic made apart from the program.
//! The last line on stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics untraced, the per-layer
//! metrics with `--trace 1`, which also writes every span to
//! `perfbench/traces/<workload>-seed<n>.tsv` under the current directory.
//! See `perfbench/README.md`.

mod check;
mod compile_cold;
mod exec;
mod layers;
mod metrics;
mod replay;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <compile_cold|replay_batch|replay_calls> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// What a workload hands back: its checks, end-to-end figures and layer
/// counts.
pub struct Outcome {
    pub tally: check::Tally,
    pub e2e: metrics::E2e,
    pub counters: layers::Counters,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        trace::start();
    }
    let (seed, seconds) = (args.seed, args.seconds);
    let outcome = match args.workload.as_str() {
        "compile_cold" => compile_cold::run(seed, seconds, t0),
        "replay_batch" => replay::run(replay::Mode::Batch, seed, seconds, t0),
        "replay_calls" => replay::run(replay::Mode::Calls, seed, seconds, t0),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    outcome.tally.report();
    let metrics = if args.trace {
        let spans = trace::finish();
        let path = PathBuf::from(format!("perfbench/traces/{}-seed{seed}.tsv", args.workload));
        if let Err(e) = trace::write(&path, &spans) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("{} spans written to {}", spans.len(), path.display());
        for (name, value, unit) in outcome.e2e.metrics() {
            eprintln!("traced {name}: {value} {unit}");
        }
        layers::metrics(&spans, &outcome.counters)
    } else {
        outcome.e2e.metrics()
    };
    println!(
        "{}",
        metrics::result_line(
            outcome.tally.is_correct(),
            outcome.tally.attempted,
            outcome.tally.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}
