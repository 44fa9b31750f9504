//! `hppa` — the top-level workbench command.
//!
//! ```sh
//! hppa report                    # write BENCH_pr7.json in the current dir
//! hppa report -o out/bench.json  # write elsewhere
//! hppa report --stdout           # print the document instead
//! hppa report --ops 20000        # size the throughput batches
//! hppa report --compare BENCH_pr2.json   # also diff against a baseline
//! hppa verify                    # 10k differential fuzz cases, seed 0xA5
//! hppa verify --seed 0x1 --cases 100000
//! hppa verify --sweep smoke      # every 257th 16-bit constant, boundary xs
//! hppa verify --replay verify_failures.jsonl
//! hppa profile --folded          # cycle-exact flamegraph folded stacks
//! hppa bench --compare BENCH_pr2.json    # perf-regression sentinel
//! hppa metrics --format prometheus       # registry export
//! ```
//!
//! `report` replays the paper-table workloads (Figure 5 multiply classes,
//! the general divide, the §7 dispatch, constant multiply/divide) with
//! cycle-attribution stats and telemetry enabled, times the E13 operand
//! mix through the one-shot path and the cached/prepared hot path, and
//! measures the same mix through the worker-pool engine at 1/2/4/8
//! threads. The output is one JSON object:
//! `{"schema_version": N, "workloads": […], "throughput": […],
//! "parallel": […]}`.
//!
//! `verify` runs every generated case through the observed interpreter, the
//! bare prepared run, a batched session, and the independent reference oracle, and
//! checks observed cycles against the per-strategy budgets. Failures land in
//! a JSONL artifact plus a shrunk one-line minimal replay file.
//!
//! `profile` folds the per-label cycle attribution into flamegraph
//! folded-stack lines whose counts sum to the simulator's cycle total
//! exactly. `bench` replays the paper workloads and diffs them against a
//! committed `BENCH_*.json` baseline under `bench/thresholds.toml`, exiting
//! non-zero on any regression. `metrics` exports the run as a Prometheus
//! text page or a JSON document.

use std::io::Write as _;
use std::process::ExitCode;

use tools::{chaos, lint, metrics, profile, report, sentinel, verify};

const USAGE: &str = "usage: hppa report [-o PATH] [--stdout] [--ops N]
                   [--compare BASELINE] [--thresholds PATH]
       hppa verify [--seed N] [--cases N] [--sweep smoke|full] [--lint]
                   [--budgets PATH] [--replay FILE] [--inject magic-off-by-one]
                   [--failures PATH] [--minimal PATH]
       hppa lint [--mul-max N] [--div-max N] [--json] [-o PATH]
       hppa chaos [--seed N] [--cases N] [--artifacts PATH]
                  [--drill all|worker-panic|shard-poison|trap-storm|decode-corrupt|register-flip]
       hppa profile [--folded] [-o PATH] [--workload NAME]
       hppa bench --compare BASELINE [--thresholds PATH] [--lint-report PATH] [-o PATH]
       hppa metrics [--format prometheus|json] [-o PATH]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("report") => run_report(&args[1..]),
        Some("verify") => run_verify(&args[1..]),
        Some("lint") => run_lint(&args[1..]),
        Some("chaos") => run_chaos(&args[1..]),
        Some("profile") => run_profile(&args[1..]),
        Some("bench") => run_bench(&args[1..]),
        Some("metrics") => run_metrics(&args[1..]),
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("hppa: unknown subcommand `{other}`\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Writes `text` to `path`, or to stdout when `path` is `None`.
fn emit(command: &str, path: Option<&str>, text: &str) -> ExitCode {
    match path {
        None => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Some(p) => match std::fs::write(p, text) {
            Ok(()) => {
                eprintln!("wrote {p}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("hppa {command}: cannot write {p}: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

fn run_lint(args: &[String]) -> ExitCode {
    let opts = match lint::parse_args(args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("hppa lint: {msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let run = lint::execute(&opts);
    let text = if opts.json {
        let mut doc = lint::to_json(&run, &opts).to_pretty_string();
        doc.push('\n');
        doc
    } else {
        lint::summarize(&run)
    };
    let wrote = emit("lint", opts.out_path.as_deref(), &text);
    if wrote != ExitCode::SUCCESS {
        return wrote;
    }
    if opts.out_path.is_some() || opts.json {
        // Keep the one-line outcome visible even when the full document
        // went to a file or is machine-formatted.
        eprint!("{}", lint::summarize(&run));
    }
    if run.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_verify(args: &[String]) -> ExitCode {
    let opts = match verify::parse_args(args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("hppa verify: {msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let report = match verify::execute(&opts) {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("hppa verify: {msg}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", verify::summarize(&report));
    let lint_passed = if opts.lint {
        let run = lint::lint_fuzz_corpus(opts.seed, opts.cases);
        print!("{}", lint::summarize(&run));
        run.passed()
    } else {
        true
    };
    if report.passed() && lint_passed {
        return ExitCode::SUCCESS;
    }
    if report.passed() {
        // Only the lint pass failed; there are no divergence artifacts to
        // write.
        return ExitCode::FAILURE;
    }
    match std::fs::File::create(&opts.failures_path)
        .and_then(|f| verify::write_failures(&report, f))
    {
        Ok(()) => eprintln!("wrote {}", opts.failures_path),
        Err(e) => eprintln!("hppa verify: cannot write {}: {e}", opts.failures_path),
    }
    if let Some(case) = &report.shrunk {
        let line = format!("{}\n", case.to_json().to_compact_string());
        match std::fs::write(&opts.minimal_path, line) {
            Ok(()) => eprintln!("wrote {}", opts.minimal_path),
            Err(e) => eprintln!("hppa verify: cannot write {}: {e}", opts.minimal_path),
        }
    }
    ExitCode::FAILURE
}

fn run_chaos(args: &[String]) -> ExitCode {
    let opts = match chaos::parse_args(args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("hppa chaos: {msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // Injected worker kills panic on purpose inside `catch_unwind`; silence
    // their default-hook backtraces so drill output stays readable. Any
    // other panic still reports normally.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied());
        if msg.is_some_and(|m| m.starts_with("chaos:")) {
            return;
        }
        prev(info);
    }));
    let report = match chaos::execute(&opts) {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("hppa chaos: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let _ = std::panic::take_hook();
    print!("{}", chaos::summarize(&report));
    match std::fs::File::create(&opts.artifacts_path)
        .and_then(|f| chaos::write_artifact(&report, f))
    {
        Ok(()) => eprintln!("wrote {}", opts.artifacts_path),
        Err(e) => {
            eprintln!("hppa chaos: cannot write {}: {e}", opts.artifacts_path);
            return ExitCode::FAILURE;
        }
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Reads, parses, and version-checks a baseline `BENCH_*.json`, then
/// compares the current document against it. Success only when nothing
/// regressed.
fn compare_against(
    command: &str,
    current: &telemetry::json::Json,
    baseline_path: &str,
    thresholds_path: Option<&str>,
) -> ExitCode {
    let thresholds = match sentinel::Thresholds::load(thresholds_path) {
        Ok(t) => t,
        Err(msg) => {
            eprintln!("hppa {command}: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let baseline_text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("hppa {command}: cannot read baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = match telemetry::json::parse(&baseline_text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("hppa {command}: baseline {baseline_path} is not JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    match sentinel::compare(current, &baseline, &thresholds) {
        Ok(comparison) => {
            print!("{}", comparison.render());
            if comparison.regressed() {
                eprintln!("hppa {command}: performance regressed against {baseline_path}");
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(msg) => {
            eprintln!("hppa {command}: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run_report(args: &[String]) -> ExitCode {
    let mut out_path = String::from("BENCH_pr7.json");
    let mut to_stdout = false;
    let mut ops = 1_000usize;
    let mut compare: Option<String> = None;
    let mut thresholds: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-o" | "--output" => match it.next() {
                Some(p) => out_path = p.clone(),
                None => {
                    eprintln!("hppa report: {arg} needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--stdout" => to_stdout = true,
            "--ops" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => ops = n,
                None => {
                    eprintln!("hppa report: --ops needs a count\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--compare" => match it.next() {
                Some(p) => compare = Some(p.clone()),
                None => {
                    eprintln!("hppa report: --compare needs a baseline path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--thresholds" => match it.next() {
                Some(p) => thresholds = Some(p.clone()),
                None => {
                    eprintln!("hppa report: --thresholds needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("hppa report: unknown option `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let workloads = report::paper_workloads();
    let throughput = report::throughput_workloads_with(ops);
    let parallel = report::parallel_workloads_with(ops);
    let json = report::report_json(&workloads, &throughput, &parallel);
    let doc = json.to_pretty_string();
    if to_stdout {
        print!("{doc}");
    } else {
        match std::fs::File::create(&out_path).and_then(|mut f| f.write_all(doc.as_bytes())) {
            Ok(()) => {
                for w in &workloads {
                    eprintln!(
                        "{:<28} {:>8} cycles ({} executed + {} nullified)",
                        w.workload, w.cycles, w.executed, w.nullified
                    );
                }
                for t in &throughput {
                    eprintln!(
                        "{:<28} {:>8} ops: {:>12.0} ops/s cold, {:>12.0} ops/s hot ({:.1}x)",
                        t.workload,
                        t.ops,
                        t.unprepared_ops_per_sec(),
                        t.prepared_ops_per_sec(),
                        t.speedup()
                    );
                }
                for p in &parallel {
                    eprintln!(
                        "{:<28} {:>8} ops @ {} threads: {:>12.0} ops/s ({:.2}x vs 1 thread)",
                        p.workload,
                        p.ops,
                        p.threads,
                        p.ops_per_sec(),
                        p.speedup_vs_1
                    );
                }
                eprintln!("wrote {out_path}");
            }
            Err(e) => {
                eprintln!("hppa report: cannot write {out_path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match compare {
        Some(baseline) => compare_against("report", &json, &baseline, thresholds.as_deref()),
        None => ExitCode::SUCCESS,
    }
}

fn run_profile(args: &[String]) -> ExitCode {
    // `--folded` is the only output format today; it is accepted explicitly
    // so invocations read naturally and future formats have somewhere to go.
    let mut out_path: Option<String> = None;
    let mut workload: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--folded" => {}
            "-o" | "--output" => match it.next() {
                Some(p) => out_path = Some(p.clone()),
                None => {
                    eprintln!("hppa profile: {arg} needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--workload" => match it.next() {
                Some(w) => workload = Some(w.clone()),
                None => {
                    eprintln!("hppa profile: --workload needs a name\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("hppa profile: unknown option `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut workloads = report::paper_workloads();
    if let Some(name) = &workload {
        workloads.retain(|w| w.workload == name.as_str());
        if workloads.is_empty() {
            eprintln!("hppa profile: no workload named `{name}`");
            return ExitCode::FAILURE;
        }
    }
    let text = profile::render_folded(&profile::folded_stacks(&workloads));
    emit("profile", out_path.as_deref(), &text)
}

fn run_bench(args: &[String]) -> ExitCode {
    let mut baseline: Option<String> = None;
    let mut thresholds: Option<String> = None;
    let mut lint_report: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--compare" => match it.next() {
                Some(p) => baseline = Some(p.clone()),
                None => {
                    eprintln!("hppa bench: --compare needs a baseline path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--thresholds" => match it.next() {
                Some(p) => thresholds = Some(p.clone()),
                None => {
                    eprintln!("hppa bench: --thresholds needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--lint-report" => match it.next() {
                Some(p) => lint_report = Some(p.clone()),
                None => {
                    eprintln!("hppa bench: --lint-report needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "-o" | "--output" => match it.next() {
                Some(p) => out_path = Some(p.clone()),
                None => {
                    eprintln!("hppa bench: {arg} needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("hppa bench: unknown option `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(baseline) = baseline else {
        eprintln!("hppa bench: --compare BASELINE is required\n{USAGE}");
        return ExitCode::FAILURE;
    };
    // The sentinel gates on deterministic cycle counts, so the current
    // document carries no throughput section: host-timing noise never blocks
    // CI unless the thresholds file opts in AND a throughput-bearing
    // document is compared via `hppa report --compare`.
    let workloads = report::paper_workloads();
    let mut current = report::report_json(&workloads, &[], &[]);
    // `--lint-report` splices a `hppa lint --json` artifact into the current
    // document as its `lint` section, so the opt-in `[lint]` threshold can
    // gate the analyzer corpus wall-clock against the baseline's.
    if let Some(p) = &lint_report {
        let section = std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read lint report {p}: {e}"))
            .and_then(|text| {
                telemetry::json::parse(&text).map_err(|e| format!("lint report {p}: {e}"))
            })
            .and_then(|artifact| lint::bench_section(&artifact));
        match section {
            Ok(section) => {
                if let telemetry::json::Json::Object(pairs) = &mut current {
                    pairs.push(("lint".to_string(), section));
                }
            }
            Err(msg) => {
                eprintln!("hppa bench: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(p) = &out_path {
        if let Err(e) = std::fs::write(p, current.to_pretty_string()) {
            eprintln!("hppa bench: cannot write {p}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {p}");
    }
    compare_against("bench", &current, &baseline, thresholds.as_deref())
}

fn run_metrics(args: &[String]) -> ExitCode {
    let mut format = String::from("prometheus");
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next() {
                Some(f) => format = f.clone(),
                None => {
                    eprintln!("hppa metrics: --format needs a name\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "-o" | "--output" => match it.next() {
                Some(p) => out_path = Some(p.clone()),
                None => {
                    eprintln!("hppa metrics: {arg} needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("hppa metrics: unknown option `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let registry = metrics::paper_metrics();
    match metrics::render(&registry, &format) {
        Ok(text) => emit("metrics", out_path.as_deref(), &text),
        Err(msg) => {
            eprintln!("hppa metrics: {msg}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
