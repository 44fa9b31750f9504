//! The `hppa lint` subcommand: statically verify the whole codegen corpus.
//!
//! Every §5 constant-multiply chain, every §7 derived-method divide (and
//! the remainder compositions built from them), and every millicode
//! listing is run through `pa-lint`. Chains and divides are checked
//! against their arithmetic claim by the abstract interpreter — a clean
//! routine here is *proved*, not merely plausible; the branchy millicode
//! gets the structural rules. Any finding makes the run fail (non-zero
//! exit), and `--json` writes a machine-readable artifact with the
//! per-routine findings and the corpus wall-clock for the perf sentinel.
//!
//! The same corpus walker backs `hppa verify --lint`, which lints the
//! distinct compiled routines drawn by the differential fuzzer's case
//! stream instead of the exhaustive ranges.

use std::fmt::Write as _;
use std::time::Instant;

use divconst::{compile_div_const, compile_div_const_i32, DivCodegenConfig, Signedness};
use mulconst::{compile_mul_const, CodegenConfig};
use oracle::{Case, CaseGen};
use pa_isa::{Program, ProgramBuilder, Reg};
use pa_lint::{lint_program, Claim, LintSpec, Report};
use telemetry::json::Json;

/// Parsed `hppa lint` options.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Upper bound of the constant-multiplier sweep (`--mul-max`, default
    /// 10 000): every chain for `0..=mul_max` is proved, unchecked and
    /// checked, plus negated and wide spot checks.
    pub mul_max: i64,
    /// Upper bound of the divisor sweep (`--div-max`, default 300): every
    /// unsigned divisor `1..=div_max` and every signed divisor
    /// `±(1..=div_max)`, plus the boundary divisors. The default covers
    /// every §7 derived-method shape (power-of-two, even-split, and both
    /// magic flavors) in a CI-sized wall-clock — the cost is divconst's
    /// chain search per divisor, not the analysis, which runs in tens of
    /// microseconds per routine.
    pub div_max: u32,
    /// Emit the JSON artifact instead of the text summary (`--json`).
    pub json: bool,
    /// Where to write the artifact or summary (`-o`); stdout when absent.
    pub out_path: Option<String>,
}

impl Default for LintOptions {
    fn default() -> LintOptions {
        LintOptions {
            mul_max: 10_000,
            div_max: 300,
            json: false,
            out_path: None,
        }
    }
}

/// Parses `hppa lint` arguments.
///
/// # Errors
///
/// A usage message naming the offending argument.
pub fn parse_args(args: &[String]) -> Result<LintOptions, String> {
    let mut opts = LintOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--mul-max" => {
                let v = value("--mul-max")?;
                opts.mul_max = v.parse().map_err(|_| format!("bad --mul-max `{v}`"))?;
            }
            "--div-max" => {
                let v = value("--div-max")?;
                opts.div_max = v.parse().map_err(|_| format!("bad --div-max `{v}`"))?;
            }
            "--json" => opts.json = true,
            "-o" | "--output" => opts.out_path = Some(value("-o")?),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

/// One finding, tagged with the routine it came from.
#[derive(Debug, Clone)]
pub struct RoutineFinding {
    /// Routine label (for example `x * 10` or `mulvar switched/s`).
    pub routine: String,
    /// The underlying lint finding.
    pub finding: pa_lint::Finding,
}

/// Outcome of a corpus lint run.
#[derive(Debug, Clone, Default)]
pub struct LintRunReport {
    /// Routines whose arithmetic claim the abstract interpreter proved.
    pub proved: u64,
    /// Routines that were only structurally checked (millicode) and came
    /// back clean.
    pub clean: u64,
    /// Every finding, in corpus order.
    pub findings: Vec<RoutineFinding>,
    /// Wall-clock for the whole run, milliseconds.
    pub wall_ms: u64,
}

impl LintRunReport {
    /// Total routines examined.
    #[must_use]
    pub fn routines(&self) -> u64 {
        self.proved + self.clean + self.rejected()
    }

    /// Routines with at least one finding.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        let mut labels: Vec<&str> = self.findings.iter().map(|f| f.routine.as_str()).collect();
        labels.dedup();
        labels.len() as u64
    }

    /// Whether the corpus came back entirely clean.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }

    fn absorb(&mut self, routine: &str, report: &Report) {
        if report.is_clean() {
            if report.proved {
                self.proved += 1;
            } else {
                self.clean += 1;
            }
            return;
        }
        for finding in &report.findings {
            self.findings.push(RoutineFinding {
                routine: routine.to_string(),
                finding: finding.clone(),
            });
        }
    }
}

/// Lints one §5 constant-multiply chain against its claim. Returns `None`
/// for constants the *checked* generator legitimately refuses (no
/// monotonic trapping chain exists) — the façade refuses those compiles
/// too, so there is no routine to verify.
#[must_use]
pub fn lint_mul(n: i64, checked: bool) -> Option<(String, Report)> {
    let cfg = if checked {
        CodegenConfig::with_overflow_checking()
    } else {
        CodegenConfig::default()
    };
    let label = if checked {
        format!("x * {n} (checked)")
    } else {
        format!("x * {n}")
    };
    let report = match compile_mul_const(n, &cfg) {
        Ok(p) => lint_program(&p, &LintSpec::mul_const(n, checked, cfg.source, cfg.dest)),
        Err(_) if checked => return None,
        Err(e) => codegen_failure(format!("codegen failed: {e}")),
    };
    Some((label, report))
}

/// Lints one derived-method divide or remainder against its claim.
#[must_use]
pub fn lint_div(claim: Claim) -> (String, Report) {
    let cfg = DivCodegenConfig::default();
    let (label, program) = match claim {
        Claim::UdivConst { y } => (
            format!("x / {y}u"),
            compile_div_const(y, Signedness::Unsigned, &cfg).map_err(|e| e.to_string()),
        ),
        Claim::SdivConst { y } => (
            format!("x / {y}"),
            compile_div_const_i32(y, &cfg).map_err(|e| e.to_string()),
        ),
        Claim::UremConst { y } => (
            format!("x % {y}u"),
            compile_div_const(y, Signedness::Unsigned, &cfg)
                .map_err(|e| e.to_string())
                .and_then(|div| rem_program(div, i64::from(y), &cfg)),
        ),
        Claim::SremConst { y } => (
            format!("x % {y}"),
            compile_div_const_i32(y, &cfg)
                .map_err(|e| e.to_string())
                .and_then(|div| rem_program(div, i64::from(y), &cfg)),
        ),
        _ => {
            return (
                "unsupported claim".to_string(),
                codegen_failure("unsupported claim".to_string()),
            )
        }
    };
    let report = match program {
        Ok(p) => lint_program(&p, &LintSpec::div_const(claim, cfg.source, cfg.dest)),
        Err(e) => codegen_failure(format!("codegen failed: {e}")),
    };
    (label, report)
}

/// A report carrying a synthetic finding for a routine that could not even
/// be generated — counted as rejected so the run fails loudly.
fn codegen_failure(message: String) -> Report {
    Report {
        claim: Claim::None,
        findings: vec![pa_lint::Finding {
            code: pa_lint::FindingCode::Unverified,
            index: None,
            message,
        }],
        proved: false,
    }
}

/// Appends the multiply-back and subtract that `Compiler::compose_rem`
/// appends, so the linted remainder program matches the façade's exactly.
fn rem_program(div: Program, y: i64, cfg: &DivCodegenConfig) -> Result<Program, String> {
    let mul_cfg = CodegenConfig {
        source: cfg.dest,
        dest: cfg.temps[0],
        temps: cfg.temps[1..6].to_vec(),
        check_overflow: false,
    };
    let mul = compile_mul_const(y, &mul_cfg).map_err(|e| e.to_string())?;
    let combined = div.concat(&mul, "_mulback");
    let mut b = ProgramBuilder::new();
    b.sub(cfg.source, mul_cfg.dest, cfg.dest);
    Ok(combined.concat(&b.build().expect("single sub builds"), "_rem"))
}

/// The millicode listings with their register contracts (structural rules
/// only — the looping `BLR`/`DS` routines sit outside the symbolic domain).
///
/// # Panics
///
/// Panics only if a millicode listing fails to build (a bug).
#[must_use]
pub fn millicode_listings() -> Vec<(String, Program, LintSpec)> {
    let mul = || LintSpec::structural(vec![Reg::R26, Reg::R25], vec![Reg::R28]);
    let div = || LintSpec::structural(vec![Reg::R26, Reg::R25], vec![Reg::R28, Reg::R29]);
    vec![
        (
            "mulvar naive".into(),
            millicode::mulvar::naive().unwrap(),
            mul(),
        ),
        (
            "mulvar early_exit".into(),
            millicode::mulvar::early_exit().unwrap(),
            mul(),
        ),
        (
            "mulvar nibble".into(),
            millicode::mulvar::nibble().unwrap(),
            mul(),
        ),
        (
            "mulvar swap".into(),
            millicode::mulvar::swap().unwrap(),
            mul(),
        ),
        (
            "mulvar switched/u".into(),
            millicode::mulvar::switched(false).unwrap(),
            mul(),
        ),
        (
            "mulvar switched/s".into(),
            millicode::mulvar::switched(true).unwrap(),
            mul(),
        ),
        (
            "divvar udiv".into(),
            millicode::divvar::udiv().unwrap(),
            div(),
        ),
        (
            "divvar sdiv".into(),
            millicode::divvar::sdiv().unwrap(),
            div(),
        ),
        (
            "divvar restoring".into(),
            millicode::divvar::restoring_udiv().unwrap(),
            div(),
        ),
        (
            "divvar dispatch".into(),
            millicode::divvar::small_dispatch(16).unwrap(),
            div(),
        ),
    ]
}

/// Boundary divisors checked on top of the dense sweep.
const UNSIGNED_EDGE_DIVISORS: [u32; 6] = [
    65_536,
    1 << 20,
    1 << 31,
    (1 << 31) + 1,
    u32::MAX - 1,
    u32::MAX,
];
const SIGNED_EDGE_DIVISORS: [i32; 6] = [
    1 << 20,
    1 << 30,
    i32::MAX - 1,
    i32::MAX,
    i32::MIN + 1,
    i32::MIN,
];

/// Runs the full corpus per `opts` and returns the report.
#[must_use]
pub fn execute(opts: &LintOptions) -> LintRunReport {
    let start = Instant::now();
    let mut run = LintRunReport::default();

    // §5 chains: every multiplier 0..=mul_max and the negated and wide spot
    // checks, each unchecked and checked.
    for n in 0..=opts.mul_max {
        for checked in [false, true] {
            if let Some((label, report)) = lint_mul(n, checked) {
                run.absorb(&label, &report);
            }
        }
    }
    for n in [
        -1i64,
        -3,
        -10,
        -625,
        -9999,
        65_535,
        123_456_789,
        i64::from(i32::MAX),
        i64::from(i32::MIN),
    ] {
        for checked in [false, true] {
            if let Some((label, report)) = lint_mul(n, checked) {
                run.absorb(&label, &report);
            }
        }
    }

    // §7 derived methods: every divisor in the sweep (power-of-two, even
    // split, and magic strategies all appear), plus boundary divisors.
    for y in 1..=opts.div_max {
        let (label, report) = lint_div(Claim::UdivConst { y });
        run.absorb(&label, &report);
        let (label, report) = lint_div(Claim::SdivConst { y: y as i32 });
        run.absorb(&label, &report);
        let (label, report) = lint_div(Claim::SdivConst { y: -(y as i32) });
        run.absorb(&label, &report);
    }
    for y in UNSIGNED_EDGE_DIVISORS {
        let (label, report) = lint_div(Claim::UdivConst { y });
        run.absorb(&label, &report);
    }
    for y in SIGNED_EDGE_DIVISORS {
        let (label, report) = lint_div(Claim::SdivConst { y });
        run.absorb(&label, &report);
    }

    // Remainder compositions ride the same machinery; a bounded sweep plus
    // edges keeps the corpus wall-clock linear in div_max.
    for y in (1..=opts.div_max.min(100)).chain([641, 1000, 4096, 10_000, u32::MAX]) {
        if y > opts.div_max && y != u32::MAX {
            continue;
        }
        let (label, report) = lint_div(Claim::UremConst { y });
        run.absorb(&label, &report);
        let (label, report) = lint_div(Claim::SremConst {
            y: (y.min(i32::MAX as u32)) as i32,
        });
        run.absorb(&label, &report);
    }

    for (name, program, spec) in millicode_listings() {
        let report = lint_program(&program, &spec);
        run.absorb(&name, &report);
    }

    run.wall_ms = start.elapsed().as_millis() as u64;
    run
}

/// Lints every *distinct* compiled routine the differential fuzzer's case
/// stream would exercise (`hppa verify --lint`). Millicode cases carry no
/// per-case codegen, so the millicode listings are linted once up front.
#[must_use]
pub fn lint_fuzz_corpus(seed: u64, cases: u64) -> LintRunReport {
    let start = Instant::now();
    let mut run = LintRunReport::default();
    for (name, program, spec) in millicode_listings() {
        let report = lint_program(&program, &spec);
        run.absorb(&name, &report);
    }
    let mut gen = CaseGen::new(seed);
    let mut seen: Vec<(u8, i64, bool)> = Vec::new();
    for _ in 0..cases {
        let key = match gen.next_case() {
            Case::MulConst { n, checked, .. } => (0u8, n, checked),
            Case::UdivConst { y, .. } => (1, i64::from(y), false),
            Case::SdivConst { y, .. } => (2, i64::from(y), false),
            Case::UremConst { y, .. } => (3, i64::from(y), false),
            Case::SremConst { y, .. } => (4, i64::from(y), false),
            // Millicode cases: no per-case codegen to lint.
            _ => continue,
        };
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let (label, report) = match key {
            (0, n, checked) => match lint_mul(n, checked) {
                Some(pair) => pair,
                // Unsupported checked constant: the verifier skips it too.
                None => continue,
            },
            (1, y, _) => lint_div(Claim::UdivConst { y: y as u32 }),
            (2, y, _) => lint_div(Claim::SdivConst { y: y as i32 }),
            (3, y, _) => lint_div(Claim::UremConst { y: y as u32 }),
            (4, y, _) => lint_div(Claim::SremConst { y: y as i32 }),
            _ => unreachable!(),
        };
        run.absorb(&label, &report);
    }
    run.wall_ms = start.elapsed().as_millis() as u64;
    run
}

/// The JSON artifact: schema header, corpus counts, wall-clock, findings.
#[must_use]
pub fn to_json(run: &LintRunReport, opts: &LintOptions) -> Json {
    Json::object(vec![
        (
            "schema_version".to_string(),
            Json::uint(telemetry::SCHEMA_VERSION),
        ),
        ("tool".to_string(), Json::str("hppa lint")),
        ("mul_max".to_string(), Json::int(opts.mul_max)),
        ("div_max".to_string(), Json::uint(u64::from(opts.div_max))),
        ("routines".to_string(), Json::uint(run.routines())),
        ("proved".to_string(), Json::uint(run.proved)),
        ("structurally_clean".to_string(), Json::uint(run.clean)),
        ("rejected".to_string(), Json::uint(run.rejected())),
        ("wall_ms".to_string(), Json::uint(run.wall_ms)),
        (
            "findings".to_string(),
            Json::Array(
                run.findings
                    .iter()
                    .map(|f| {
                        Json::object(vec![
                            ("routine".to_string(), Json::str(&f.routine)),
                            ("code".to_string(), Json::str(f.finding.code.id())),
                            ("name".to_string(), Json::str(f.finding.code.name())),
                            (
                                "index".to_string(),
                                match f.finding.index {
                                    Some(i) => Json::uint(i as u64),
                                    None => Json::Null,
                                },
                            ),
                            ("message".to_string(), Json::str(&f.finding.message)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "verdict".to_string(),
            Json::str(if run.passed() { "PASS" } else { "FAIL" }),
        ),
    ])
}

/// Slims a `hppa lint --json` artifact down to the `lint` section a bench
/// document carries (`hppa bench --lint-report`): corpus shape, verdict
/// counts and the wall-clock the `[lint]` sentinel threshold gates on.
///
/// # Errors
///
/// A human-readable message when the artifact is not a lint report (no
/// `wall_ms` / `routines` fields).
pub fn bench_section(artifact: &Json) -> Result<Json, String> {
    let take = |key: &str| -> Result<(String, Json), String> {
        artifact
            .get(key)
            .and_then(Json::as_u64)
            .map(|v| (key.to_string(), Json::uint(v)))
            .ok_or_else(|| format!("not a `hppa lint --json` artifact: no `{key}` field"))
    };
    Ok(Json::object(vec![
        take("routines")?,
        take("proved")?,
        take("structurally_clean")?,
        take("rejected")?,
        take("wall_ms")?,
    ]))
}

/// The human-readable summary printed by the subcommand.
#[must_use]
pub fn summarize(run: &LintRunReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{} routines: {} proved, {} structurally clean, {} rejected ({} ms)",
        run.routines(),
        run.proved,
        run.clean,
        run.rejected(),
        run.wall_ms
    );
    for f in run.findings.iter().take(25) {
        let _ = writeln!(s, "{}: [{}] {}", f.routine, f.finding.code.id(), f.finding);
    }
    if run.findings.len() > 25 {
        let _ = writeln!(s, "… {} more findings", run.findings.len() - 25);
    }
    let _ = writeln!(s, "verdict: {}", if run.passed() { "PASS" } else { "FAIL" });
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
            "--mul-max",
            "64",
            "--div-max",
            "32",
            "--json",
            "-o",
            "lint.json",
        ]))
        .unwrap();
        assert_eq!(o.mul_max, 64);
        assert_eq!(o.div_max, 32);
        assert!(o.json);
        assert_eq!(o.out_path.as_deref(), Some("lint.json"));
        assert!(parse_args(&args(&["--mul-max"])).is_err());
        assert!(parse_args(&args(&["--div-max", "zebra"])).is_err());
        assert!(parse_args(&args(&["--frobnicate"])).is_err());
    }

    #[test]
    fn small_corpus_is_fully_proved() {
        let opts = LintOptions {
            mul_max: 24,
            div_max: 12,
            ..LintOptions::default()
        };
        let run = execute(&opts);
        assert!(run.passed(), "{}", summarize(&run));
        assert!(run.proved > 0);
        assert_eq!(run.clean, 10, "the ten millicode listings");
        let doc = to_json(&run, &opts);
        assert_eq!(doc.get("verdict").and_then(Json::as_str), Some("PASS"));
        assert_eq!(
            doc.get("routines").and_then(Json::as_u64),
            Some(run.routines())
        );
        assert!(doc.get("wall_ms").and_then(Json::as_u64).is_some());
    }

    #[test]
    fn fuzz_corpus_lints_clean() {
        let cases = if cfg!(debug_assertions) { 50 } else { 2_000 };
        let run = lint_fuzz_corpus(0xA5, cases);
        assert!(run.passed(), "{}", summarize(&run));
        assert!(run.proved > 0, "fuzz stream reached constant ops");
    }

    #[test]
    fn findings_surface_in_summary_and_json() {
        // A hand-written uninit-read sample through the same reporting path
        // the corpus uses.
        let mut b = ProgramBuilder::new();
        b.add(Reg::R20, Reg::R20, Reg::R28);
        let p = b.build().unwrap();
        let spec = LintSpec::structural(vec![Reg::R26], vec![Reg::R28]);
        let mut run = LintRunReport::default();
        run.absorb("uninit sample", &lint_program(&p, &spec));
        assert!(!run.passed());
        assert_eq!(run.rejected(), 1);
        let text = summarize(&run);
        assert!(text.contains("PL001"), "{text}");
        assert!(text.contains("verdict: FAIL"), "{text}");
        let doc = to_json(&run, &LintOptions::default());
        assert_eq!(doc.get("verdict").and_then(Json::as_str), Some("FAIL"));
    }

    #[test]
    fn bench_section_slims_the_artifact() {
        let run = LintRunReport {
            wall_ms: 1234,
            ..LintRunReport::default()
        };
        let section = bench_section(&to_json(&run, &LintOptions::default())).unwrap();
        assert_eq!(section.get("wall_ms").and_then(Json::as_u64), Some(1234));
        assert_eq!(section.get("routines").and_then(Json::as_u64), Some(0));
        assert!(section.get("findings").is_none());
        let err = bench_section(&Json::object(vec![])).unwrap_err();
        assert!(err.contains("not a `hppa lint --json` artifact"), "{err}");
    }
}
