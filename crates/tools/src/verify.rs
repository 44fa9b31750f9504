//! The `hppa verify` subcommand: drive the differential oracle.
//!
//! Modes (combinable; at least one of fuzz/sweep/replay runs):
//!
//! * **fuzz** (default) — `--seed N --cases N` structured cases through
//!   observed interpreter, bare prepared run, batched session, and oracle;
//! * **sweep** — `--sweep smoke` (every 257th 16-bit constant) or
//!   `--sweep full` (all of them; a long lunch) over boundary operands;
//! * **replay** — `--replay FILE` re-checks previously written failure
//!   cases (one compact JSON object per line; bare cases, full verify
//!   events, and the `{"schema_version":N}` header are all accepted).
//!
//! On failure the divergences and budget violations are written as
//! telemetry JSONL to `--failures PATH` and the first divergence is
//! shrunk to a minimal single-line replay file at `--minimal PATH`.
//! `--inject magic-off-by-one` plants a deliberate off-by-one in the
//! oracle's scratch magic constants to prove the harness catches it.

use std::fmt::Write as _;
use std::io;

use oracle::{Budgets, Case, Inject, Verifier, VerifyReport};
use telemetry::{Event, JsonlSink};

/// Which constant sweep to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// A bounded CI-sized subset: every 257th 16-bit constant.
    Smoke,
    /// All 65535 16-bit constants. Compiling each divisor costs a chain
    /// search (~80ms), so expect on the order of an hour or two.
    Full,
}

impl Sweep {
    /// The sweep stride over the 16-bit constants.
    #[must_use]
    pub fn stride(self) -> u32 {
        match self {
            Sweep::Smoke => 257,
            Sweep::Full => 1,
        }
    }
}

/// Parsed `hppa verify` options.
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// Fuzz seed (`--seed`, decimal or `0x` hex). Default `0xA5`.
    pub seed: u64,
    /// Fuzz case count (`--cases`). Default 10 000; `0` skips fuzzing.
    pub cases: u64,
    /// Optional constant sweep (`--sweep smoke|full`).
    pub sweep: Option<Sweep>,
    /// Optional budget TOML path (`--budgets`); default is the embedded
    /// `crates/oracle/budgets.toml`.
    pub budgets: Option<String>,
    /// Optional deliberate fault (`--inject magic-off-by-one`).
    pub inject: Option<Inject>,
    /// Optional replay file of JSONL cases (`--replay`).
    pub replay: Option<String>,
    /// Also lint every distinct compiled routine the fuzz stream draws
    /// (`--lint`); any finding fails the run.
    pub lint: bool,
    /// Where failure events go as JSONL (`--failures`).
    pub failures_path: String,
    /// Where the shrunk minimal case goes (`--minimal`).
    pub minimal_path: String,
}

impl Default for VerifyOptions {
    fn default() -> VerifyOptions {
        VerifyOptions {
            seed: 0xA5,
            cases: 10_000,
            sweep: None,
            budgets: None,
            inject: None,
            replay: None,
            lint: false,
            failures_path: "verify_failures.jsonl".to_string(),
            minimal_path: "verify_minimal_case.json".to_string(),
        }
    }
}

/// Parses `hppa verify` arguments.
///
/// # Errors
///
/// A usage message naming the offending argument.
pub fn parse_args(args: &[String]) -> Result<VerifyOptions, String> {
    let mut opts = VerifyOptions::default();
    let mut explicit_cases = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--seed" => {
                let v = value("--seed")?;
                opts.seed = parse_u64(&v).ok_or_else(|| format!("bad seed `{v}`"))?;
            }
            "--cases" => {
                let v = value("--cases")?;
                opts.cases = parse_u64(&v).ok_or_else(|| format!("bad case count `{v}`"))?;
                explicit_cases = true;
            }
            "--sweep" => {
                opts.sweep = Some(match value("--sweep")?.as_str() {
                    "smoke" => Sweep::Smoke,
                    "full" => Sweep::Full,
                    other => return Err(format!("bad sweep mode `{other}` (smoke|full)")),
                });
            }
            "--budgets" => opts.budgets = Some(value("--budgets")?),
            "--inject" => {
                opts.inject = Some(match value("--inject")?.as_str() {
                    "magic-off-by-one" => Inject::MagicOffByOne,
                    other => return Err(format!("bad injection `{other}` (magic-off-by-one)")),
                });
            }
            "--replay" => opts.replay = Some(value("--replay")?),
            "--lint" => opts.lint = true,
            "--failures" => opts.failures_path = value("--failures")?,
            "--minimal" => opts.minimal_path = value("--minimal")?,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    // A sweep or replay invocation without an explicit --cases runs just
    // that mode; fuzzing stays the default otherwise.
    if (opts.sweep.is_some() || opts.replay.is_some()) && !explicit_cases {
        opts.cases = 0;
    }
    Ok(opts)
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Runs verification per `opts` and returns the report.
///
/// # Errors
///
/// A message for configuration problems (unreadable budget or replay
/// file, malformed replay line) — distinct from verification *failure*,
/// which is reported in the returned [`VerifyReport`].
pub fn execute(opts: &VerifyOptions) -> Result<VerifyReport, String> {
    let budgets = match &opts.budgets {
        None => Budgets::embedded(),
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read budgets {path}: {e}"))?;
            Budgets::parse(&text).map_err(|e| format!("{path}: {e}"))?
        }
    };
    let mut verifier =
        Verifier::new(budgets, opts.inject).map_err(|e| format!("cannot build runtime: {e}"))?;
    if let Some(path) = &opts.replay {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read replay file {path}: {e}"))?;
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let doc = telemetry::json::parse(line)
                .map_err(|e| format!("{path}:{}: not JSON ({e}): `{line}`", idx + 1))?;
            // Failure artifacts lead with a {"schema_version":N} header.
            if doc.get("schema_version").is_some() && doc.get("kind").is_none() {
                continue;
            }
            // Accept both bare case objects and telemetry verify events
            // (which embed the replayable case as a compact JSON string).
            let case = match doc.get("case").and_then(telemetry::json::Json::as_str) {
                Some(embedded) => Case::parse(embedded),
                None => Case::from_json(&doc),
            }
            .ok_or_else(|| format!("{path}:{}: unparseable case `{line}`", idx + 1))?;
            verifier.check_case(&case);
        }
    }
    if opts.cases > 0 {
        verifier.run_fuzz(opts.seed, opts.cases);
    }
    if let Some(sweep) = opts.sweep {
        verifier.run_sweep(sweep.stride());
    }
    Ok(verifier.finish())
}

/// Serialises every failure in `report` as telemetry JSONL, prefixed by a
/// `{"schema_version":N}` header line. Clean reports write nothing (no
/// header, no events), so an empty failure file still reads as "no
/// failures".
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_failures(report: &VerifyReport, w: impl io::Write) -> io::Result<()> {
    let mut sink = JsonlSink::new(w);
    let mut events = Vec::new();
    for d in &report.divergences {
        events.push(Event::Verify {
            suite: "divergence",
            case: d.case.to_json().to_compact_string(),
            detail: format!("[{}] {}", d.paths, d.detail),
        });
    }
    for v in &report.budget_violations {
        events.push(Event::Verify {
            suite: "budget",
            case: v.case.clone(),
            detail: v.to_string(),
        });
    }
    if events.is_empty() {
        return Ok(());
    }
    sink.write_header()?;
    sink.write_all(&events)
}

/// The human-readable run summary printed by the subcommand.
#[must_use]
pub fn summarize(report: &VerifyReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{} cases, {} divergences, {} budget violations, {} unsupported-checked-mul skips",
        report.cases_run,
        report.divergence_count,
        report.budget_violations.len(),
        report.skipped_unsupported
    );
    if !report.max_cycles.is_empty() {
        let _ = writeln!(s, "worst observed cycles per strategy:");
        for (key, cycles) in &report.max_cycles {
            let _ = writeln!(s, "  {key:<26} {cycles:>4}");
        }
    }
    for d in report.divergences.iter().take(10) {
        let _ = writeln!(s, "divergence: {d}");
    }
    if report.divergences.len() > 10 {
        let _ = writeln!(s, "… {} more divergences", report.divergences.len() - 10);
    }
    for v in report.budget_violations.iter().take(10) {
        let _ = writeln!(s, "over budget: {v}");
    }
    if report.budget_violations.len() > 10 {
        let _ = writeln!(
            s,
            "… {} more budget violations",
            report.budget_violations.len() - 10
        );
    }
    if let Some(c) = &report.shrunk {
        let _ = writeln!(s, "minimal failing case: {c}");
    }
    let _ = writeln!(
        s,
        "verdict: {}",
        if report.passed() { "PASS" } else { "FAIL" }
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parses_the_documented_flags() {
        let o = parse_args(&args(&[
            "--seed",
            "0xA5",
            "--cases",
            "1000",
            "--inject",
            "magic-off-by-one",
            "--failures",
            "f.jsonl",
            "--minimal",
            "m.json",
        ]))
        .unwrap();
        assert_eq!(o.seed, 0xA5);
        assert_eq!(o.cases, 1000);
        assert_eq!(o.inject, Some(Inject::MagicOffByOne));
        assert_eq!(o.failures_path, "f.jsonl");
        assert_eq!(o.minimal_path, "m.json");
        assert!(o.sweep.is_none());
        assert!(!o.lint);
        let o = parse_args(&args(&["--lint"])).unwrap();
        assert!(o.lint);
    }

    #[test]
    fn sweep_without_cases_skips_fuzzing() {
        let o = parse_args(&args(&["--sweep", "smoke"])).unwrap();
        assert_eq!(o.sweep, Some(Sweep::Smoke));
        assert_eq!(o.cases, 0);
        let o = parse_args(&args(&["--sweep", "full", "--cases", "5"])).unwrap();
        assert_eq!(o.sweep, Some(Sweep::Full));
        assert_eq!(o.cases, 5);
        assert_eq!(Sweep::Smoke.stride(), 257);
        assert_eq!(Sweep::Full.stride(), 1);
    }

    #[test]
    fn rejects_malformed_arguments() {
        assert!(parse_args(&args(&["--seed"])).is_err());
        assert!(parse_args(&args(&["--seed", "zebra"])).is_err());
        assert!(parse_args(&args(&["--sweep", "everything"])).is_err());
        assert!(parse_args(&args(&["--inject", "bit-flip"])).is_err());
        assert!(parse_args(&args(&["--frobnicate"])).is_err());
    }

    #[test]
    fn small_clean_run_passes_and_summarises() {
        let opts = VerifyOptions {
            cases: if cfg!(debug_assertions) { 40 } else { 400 },
            ..VerifyOptions::default()
        };
        let report = execute(&opts).unwrap();
        assert!(report.passed(), "{:?}", report.divergences);
        let text = summarize(&report);
        assert!(text.contains("verdict: PASS"), "{text}");
        let mut buf = Vec::new();
        write_failures(&report, &mut buf).unwrap();
        assert!(buf.is_empty(), "clean run writes no failure lines");
    }

    #[test]
    fn injected_fault_fails_and_writes_artifacts() {
        let opts = VerifyOptions {
            cases: if cfg!(debug_assertions) { 100 } else { 600 },
            inject: Some(Inject::MagicOffByOne),
            ..VerifyOptions::default()
        };
        let report = execute(&opts).unwrap();
        assert!(!report.passed());
        let text = summarize(&report);
        assert!(text.contains("verdict: FAIL"));
        assert!(text.contains("minimal failing case:"));
        let mut buf = Vec::new();
        write_failures(&report, &mut buf).unwrap();
        let jsonl = String::from_utf8(buf).unwrap();
        let mut lines = jsonl.lines();
        let header = telemetry::json::parse(lines.next().expect("header line")).unwrap();
        assert_eq!(
            header
                .get("schema_version")
                .and_then(telemetry::json::Json::as_u64),
            Some(telemetry::SCHEMA_VERSION)
        );
        let first = lines.next().expect("at least one failure line");
        let parsed = telemetry::json::parse(first).unwrap();
        assert_eq!(
            parsed.get("event").and_then(telemetry::json::Json::as_str),
            Some("verify")
        );
        // The embedded case replays: running just it against a clean
        // verifier (no injection) is green, proving the artifact format
        // round-trips into a checkable case.
        let case_line = parsed
            .get("case")
            .and_then(telemetry::json::Json::as_str)
            .unwrap();
        assert!(
            Case::parse(case_line).is_some(),
            "replayable case: {case_line}"
        );
    }

    #[test]
    fn replay_files_round_trip() {
        let dir = std::env::temp_dir();
        let path = dir.join("hppa_verify_replay_test.jsonl");
        std::fs::write(
            &path,
            "{\"kind\":\"udiv_const\",\"y\":7,\"x\":123456}\n\n{\"kind\":\"mul_var\",\"x\":-3,\"y\":9001}\n",
        )
        .unwrap();
        let opts = VerifyOptions {
            replay: Some(path.display().to_string()),
            cases: 0,
            ..VerifyOptions::default()
        };
        let report = execute(&opts).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(report.cases_run, 2);
        assert!(report.passed(), "{:?}", report.divergences);
    }

    #[test]
    fn replay_accepts_failure_artifacts_verbatim() {
        // A failures file as write_failures produces it: schema header,
        // then verify events embedding their cases as compact JSON strings.
        let path = std::env::temp_dir().join(format!(
            "hppa_verify_replay_artifact_{}.jsonl",
            std::process::id()
        ));
        std::fs::write(
            &path,
            concat!(
                "{\"schema_version\":2}\n",
                "{\"event\":\"verify\",\"suite\":\"divergence\",",
                "\"case\":\"{\\\"kind\\\":\\\"udiv_const\\\",\\\"y\\\":7,\\\"x\\\":123456}\",",
                "\"detail\":\"[sim vs oracle] values differ\"}\n",
            ),
        )
        .unwrap();
        let opts = VerifyOptions {
            replay: Some(path.display().to_string()),
            cases: 0,
            ..VerifyOptions::default()
        };
        let report = execute(&opts).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(report.cases_run, 1, "header skipped, event unwrapped");
        assert!(report.passed(), "{:?}", report.divergences);
    }

    #[test]
    fn execute_surfaces_configuration_errors() {
        let missing = VerifyOptions {
            budgets: Some("no/such/budgets.toml".to_string()),
            ..VerifyOptions::default()
        };
        assert!(execute(&missing).unwrap_err().contains("cannot read"));
        let missing_replay = VerifyOptions {
            replay: Some("no/such/replay.jsonl".to_string()),
            cases: 0,
            ..VerifyOptions::default()
        };
        assert!(execute(&missing_replay)
            .unwrap_err()
            .contains("cannot read replay"));
    }
}
