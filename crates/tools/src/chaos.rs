//! The `hppa chaos` subcommand: deterministic fault-injection drills.
//!
//! Each drill arms one family of [`FaultPlan`]s against the live stack and
//! checks the robustness contract from `docs/ROBUSTNESS.md`: an injected
//! fault must end in either an **oracle-verified correct result** or a
//! **typed error** — never a panic escaping the facade, never a torn batch,
//! and never a silently wrong value. Correctness is judged against the
//! independent `oracle` reference implementations, not the code under test.
//!
//! Drills are seed-reproducible: every plan parameter (which step, which
//! slot, which register bit, which operands) is drawn from a splitmix64
//! stream keyed by `--seed`, so a failing drill replays exactly.
//!
//! * **trap-storm** — forced `BREAK` traps swept across the general unsigned
//!   divide millicode;
//! * **decode-corrupt** — one instruction slot of the switched multiply
//!   millicode mutated before the run;
//! * **register-flip** — one register bit flipped mid-run;
//! * **shard-poison** — the compile cache's mutex poisoned for real on
//!   first lookup, then required to heal and hit;
//! * **worker-panic** — an engine worker killed mid-batch at pool widths
//!   1/2/4/8.

use std::fmt::Write as _;
use std::io;

use hppa_muldiv::sim::fault::CHAOS_BREAK;
use hppa_muldiv::sim::{ExecConfig, Machine, PreparedProgram, Termination};
use hppa_muldiv::{millicode, Compiler, Error, FaultPlan, Runtime};
use oracle::fuzz::Rng;
use pa_isa::Reg;
use telemetry::{Event, JsonlSink};

/// One drill family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drill {
    /// Kill an engine worker mid-batch at pool widths 1/2/4/8.
    WorkerPanic,
    /// Poison the compile cache's lock and require heal-then-hit.
    ShardPoison,
    /// Sweep forced `BREAK` traps across the divide millicode.
    TrapStorm,
    /// Corrupt instruction slots of the multiply millicode.
    DecodeCorrupt,
    /// Flip register bits mid-run.
    RegisterFlip,
}

impl Drill {
    /// Every drill, in the order `--drill all` runs them.
    pub const ALL: [Drill; 5] = [
        Drill::WorkerPanic,
        Drill::ShardPoison,
        Drill::TrapStorm,
        Drill::DecodeCorrupt,
        Drill::RegisterFlip,
    ];

    /// The drill's CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Drill::WorkerPanic => "worker-panic",
            Drill::ShardPoison => "shard-poison",
            Drill::TrapStorm => "trap-storm",
            Drill::DecodeCorrupt => "decode-corrupt",
            Drill::RegisterFlip => "register-flip",
        }
    }

    fn parse(name: &str) -> Option<Vec<Drill>> {
        match name {
            "all" => Some(Drill::ALL.to_vec()),
            "worker-panic" => Some(vec![Drill::WorkerPanic]),
            "shard-poison" => Some(vec![Drill::ShardPoison]),
            "trap-storm" => Some(vec![Drill::TrapStorm]),
            "decode-corrupt" => Some(vec![Drill::DecodeCorrupt]),
            "register-flip" => Some(vec![Drill::RegisterFlip]),
            _ => None,
        }
    }
}

/// Parsed `hppa chaos` options.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Drill seed (`--seed`, decimal or `0x` hex). Default `0xC4`.
    pub seed: u64,
    /// Which drills run (`--drill all|NAME`). Default: all.
    pub drills: Vec<Drill>,
    /// Injections per drill (`--cases`). Default 8.
    pub cases: u64,
    /// Where the drill artifact goes as JSONL (`--artifacts`).
    pub artifacts_path: String,
}

impl Default for ChaosOptions {
    fn default() -> ChaosOptions {
        ChaosOptions {
            seed: 0xC4,
            drills: Drill::ALL.to_vec(),
            cases: 8,
            artifacts_path: "chaos_drills.jsonl".to_string(),
        }
    }
}

/// Parses `hppa chaos` arguments.
///
/// # Errors
///
/// A usage message naming the offending argument.
pub fn parse_args(args: &[String]) -> Result<ChaosOptions, String> {
    let mut opts = ChaosOptions::default();
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
            }
            "--drill" => {
                let v = value("--drill")?;
                opts.drills = Drill::parse(&v).ok_or_else(|| {
                    format!(
                        "bad drill `{v}` \
                         (all|worker-panic|shard-poison|trap-storm|decode-corrupt|register-flip)"
                    )
                })?;
            }
            "--artifacts" => opts.artifacts_path = value("--artifacts")?,
            other => return Err(format!("unknown option `{other}`")),
        }
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

/// The outcome of one injection.
#[derive(Debug, Clone)]
pub struct DrillCase {
    /// Which drill injected.
    pub drill: &'static str,
    /// The armed plan, rendered.
    pub plan: String,
    /// `"correct"`, `"typed-error"`, or `"SILENT-WRONG"`.
    pub outcome: &'static str,
    /// What happened, human-readable.
    pub detail: String,
}

impl DrillCase {
    fn correct(drill: Drill, plan: &str, detail: String) -> DrillCase {
        DrillCase {
            drill: drill.name(),
            plan: plan.to_string(),
            outcome: "correct",
            detail,
        }
    }

    fn typed(drill: Drill, plan: &str, detail: String) -> DrillCase {
        DrillCase {
            drill: drill.name(),
            plan: plan.to_string(),
            outcome: "typed-error",
            detail,
        }
    }

    fn wrong(drill: Drill, plan: &str, detail: String) -> DrillCase {
        DrillCase {
            drill: drill.name(),
            plan: plan.to_string(),
            outcome: "SILENT-WRONG",
            detail,
        }
    }
}

/// The full report of a chaos run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The seed the drills were derived from.
    pub seed: u64,
    /// Every injection's outcome, in drill order.
    pub cases: Vec<DrillCase>,
    /// The `FaultInjected` telemetry observed while drilling, for the
    /// artifact: every injection must be observable, not just survivable.
    pub fault_events: Vec<Event>,
}

impl ChaosReport {
    /// Whether every injection ended correct-or-typed (the robustness
    /// contract) and at least one fault was actually observed.
    #[must_use]
    pub fn passed(&self) -> bool {
        !self.cases.is_empty()
            && !self.fault_events.is_empty()
            && self.cases.iter().all(|c| c.outcome != "SILENT-WRONG")
    }
}

/// Runs the configured drills and returns the report.
///
/// # Errors
///
/// A message when the stack itself cannot be built (never expected).
pub fn execute(opts: &ChaosOptions) -> Result<ChaosReport, String> {
    let mut cases = Vec::new();
    let mut fault_events = Vec::new();
    for (i, &drill) in opts.drills.iter().enumerate() {
        // Offset the stream per drill so adding one drill does not reshuffle
        // the others' injections.
        let mut rng = Rng::new(opts.seed ^ (0x9E37_79B9u64 << i));
        let (outcomes, events) = telemetry::collect(|| match drill {
            Drill::WorkerPanic => drill_worker_panic(&mut rng, opts.cases),
            Drill::ShardPoison => drill_shard_poison(&mut rng, opts.cases),
            Drill::TrapStorm => drill_trap_storm(&mut rng, opts.cases),
            Drill::DecodeCorrupt => drill_decode_corrupt(&mut rng, opts.cases),
            Drill::RegisterFlip => drill_register_flip(&mut rng, opts.cases),
        });
        cases.extend(outcomes?);
        fault_events.extend(
            events
                .into_iter()
                .filter(|e| matches!(e, Event::FaultInjected { .. })),
        );
    }
    Ok(ChaosReport {
        seed: opts.seed,
        cases,
        fault_events,
    })
}

/// A prepared millicode routine armed with `plan`, with a bounded watchdog
/// so corrupted control flow cannot spin forever.
fn armed(program: &pa_isa::Program, plan: FaultPlan) -> PreparedProgram {
    let config = ExecConfig {
        max_cycles: 10_000,
        ..ExecConfig::default()
    }
    .with_fault_plan(plan);
    PreparedProgram::new(program, config)
}

/// Classifies one armed millicode run: `expect` is the oracle's view of the
/// correct `(r28, r29)` outputs (`None` marks a register the drill does not
/// check).
fn classify(
    drill: Drill,
    plan: &FaultPlan,
    prepared: &PreparedProgram,
    a: u32,
    b: u32,
    expect: (u32, Option<u32>),
) -> DrillCase {
    let plan_text = plan.to_string();
    let mut m = Machine::with_regs(&[(Reg::R26, a), (Reg::R25, b)]);
    let r = prepared.run(&mut m);
    match r.termination {
        Termination::Completed => {
            let got = (m.reg(Reg::R28), expect.1.map(|_| m.reg(Reg::R29)));
            if got == expect {
                DrillCase::correct(drill, &plan_text, format!("completed, outputs {got:?}"))
            } else {
                DrillCase::wrong(
                    drill,
                    &plan_text,
                    format!("completed with {got:?}, oracle says {expect:?} (a={a}, b={b})"),
                )
            }
        }
        Termination::Trapped(t) => DrillCase::typed(
            drill,
            &plan_text,
            format!("trapped {:?} at slot {}", t.kind, t.at),
        ),
        Termination::Faulted(f) => DrillCase::typed(drill, &plan_text, format!("faulted: {f:?}")),
        Termination::CycleLimit => {
            DrillCase::typed(drill, &plan_text, "hit the cycle watchdog".to_string())
        }
    }
}

/// Forced `BREAK`s swept across the general unsigned divide: every step
/// either preempts with the chaos code or lets the run complete with the
/// oracle's quotient and remainder.
fn drill_trap_storm(rng: &mut Rng, cases: u64) -> Result<Vec<DrillCase>, String> {
    let program = millicode::divvar::udiv().map_err(|e| format!("cannot build udiv: {e}"))?;
    let mut out = Vec::new();
    for _ in 0..cases {
        let x = rng.next_u32() & 0x3FFF;
        let y = (rng.next_u32() & 0x3FF) + 1; // never zero
        let step = rng.below(90); // the routine runs ≈80 cycles
        let plan = FaultPlan::ForceTrap {
            step,
            code: CHAOS_BREAK,
        };
        let prepared = armed(&program, plan.clone());
        let expect = (
            oracle::reference::udiv(x, y).expect("y is non-zero"),
            Some(oracle::reference::urem(x, y).expect("y is non-zero")),
        );
        let case = classify(Drill::TrapStorm, &plan, &prepared, x, y, expect);
        // Tighten the contract for forced traps: a typed outcome must carry
        // the chaos code, nothing else.
        if case.outcome == "typed-error" && !case.detail.contains("Break(122)") {
            out.push(DrillCase::wrong(
                Drill::TrapStorm,
                &plan.to_string(),
                format!("typed, but not the injected break: {}", case.detail),
            ));
        } else {
            out.push(case);
        }
    }
    Ok(out)
}

/// Decode-slot corruption of the switched multiply: the dual-run machine
/// check must certify completions, so a completed drill equals the oracle.
fn drill_decode_corrupt(rng: &mut Rng, cases: u64) -> Result<Vec<DrillCase>, String> {
    let program =
        millicode::mulvar::switched(false).map_err(|e| format!("cannot build mul: {e}"))?;
    let mut out = Vec::new();
    for _ in 0..cases {
        let x = rng.next_u32() & 0x3FFF;
        let y = rng.next_u32() & 0x3FFF;
        let plan = FaultPlan::DecodeCorrupt {
            slot: rng.below(program.len() as u64) as usize,
            seed: rng.next_u64(),
        };
        let prepared = armed(&program, plan.clone());
        let expect = (oracle::reference::mul_wrapping_u32(x, y), None);
        out.push(classify(
            Drill::DecodeCorrupt,
            &plan,
            &prepared,
            x,
            y,
            expect,
        ));
    }
    Ok(out)
}

/// Register-bit flips mid-multiply: completions must match the oracle
/// (certified by the machine check), everything else must be typed.
fn drill_register_flip(rng: &mut Rng, cases: u64) -> Result<Vec<DrillCase>, String> {
    let program =
        millicode::mulvar::switched(false).map_err(|e| format!("cannot build mul: {e}"))?;
    let mut out = Vec::new();
    for _ in 0..cases {
        let x = rng.next_u32() & 0x3FFF;
        let y = rng.next_u32() & 0x3FFF;
        let reg = Reg::new(rng.below(32) as u8).expect("below 32");
        let plan = FaultPlan::RegisterFlip {
            cycle: rng.below(40),
            reg,
            bit: rng.below(32) as u8,
        };
        let prepared = armed(&program, plan.clone());
        let expect = (oracle::reference::mul_wrapping_u32(x, y), None);
        out.push(classify(
            Drill::RegisterFlip,
            &plan,
            &prepared,
            x,
            y,
            expect,
        ));
    }
    Ok(out)
}

/// Real poisoning of the compile cache's mutex: the armed cache poisons
/// its one lock on first lookup, must heal (counting a recovery), produce
/// oracle-correct compiled results, and then *hit* on the recompiled entry.
fn drill_shard_poison(rng: &mut Rng, cases: u64) -> Result<Vec<DrillCase>, String> {
    let mut out = Vec::new();
    for _ in 0..cases {
        let y = (rng.next_u32() & 0xFF) + 2;
        let x = rng.next_u32() & 0x3FFF;
        let plan = FaultPlan::ShardPoison { shard: 0 };
        let plan_text = plan.to_string();
        let compiler = Compiler::builder().fault_plan(plan).build();
        let op = compiler
            .udiv_const(y)
            .map_err(|e| format!("udiv_const({y}): {e}"))?;
        let got = op.run_u32(x);
        let expect = oracle::reference::udiv(x, y).expect("y is non-zero");
        let case = match got {
            Ok(v) if v == expect => {
                // The contract has two more legs here: the lock healed
                // (recovery counted) and the recompiled entry now hits.
                let recoveries: u64 = compiler.cache_stats().iter().map(|s| s.recoveries).sum();
                compiler
                    .udiv_const(y)
                    .map_err(|e| format!("recompile udiv_const({y}): {e}"))?;
                let hits: u64 = compiler.cache_stats().iter().map(|s| s.hits).sum();
                if recoveries == 0 {
                    DrillCase::wrong(
                        Drill::ShardPoison,
                        &plan_text,
                        "poison never fired or was never healed".to_string(),
                    )
                } else if hits == 0 {
                    DrillCase::wrong(
                        Drill::ShardPoison,
                        &plan_text,
                        "healed cache did not serve a hit".to_string(),
                    )
                } else {
                    DrillCase::correct(
                        Drill::ShardPoison,
                        &plan_text,
                        format!("{x}/{y}={v}; {recoveries} recovery, then hit"),
                    )
                }
            }
            Ok(v) => DrillCase::wrong(
                Drill::ShardPoison,
                &plan_text,
                format!("{x}/{y} gave {v}, oracle says {expect}"),
            ),
            Err(e) => DrillCase::typed(Drill::ShardPoison, &plan_text, e.to_string()),
        };
        out.push(case);
    }
    Ok(out)
}

/// Worker kills at pool widths 1/2/4/8: the batch must either complete with
/// oracle-correct values (kill target beyond the spawned chunks) or surface
/// `Error::WorkerPanicked` — never hang, panic through, or tear the merge.
fn drill_worker_panic(rng: &mut Rng, cases: u64) -> Result<Vec<DrillCase>, String> {
    let mut out = Vec::new();
    // Runtime construction is the expensive part; two kill targets cover
    // "dies" and "outlives the pool" at every width.
    for &worker in &[0usize, 3] {
        let plan = FaultPlan::WorkerKill { worker };
        let plan_text = plan.to_string();
        let rt = Runtime::builder()
            .workers(8)
            .fault_plan(plan)
            .build()
            .map_err(|e| format!("cannot build runtime: {e}"))?;
        let pairs: Vec<(i32, i32)> = (0..cases.max(8))
            .map(|_| {
                (
                    (rng.next_u32() & 0x3FFF) as i32 - 0x2000,
                    (rng.next_u32() & 0x3FFF) as i32 - 0x2000,
                )
            })
            .collect();
        for width in [1usize, 2, 4, 8] {
            let engine = rt
                .engine()
                .with_workers(width)
                .map_err(|e| format!("with_workers({width}): {e}"))?;
            let label = format!("{plan_text} @ {width} workers");
            let case = match engine.mul_batch(&pairs) {
                Ok(batch) => {
                    let silent = pairs.iter().enumerate().find(|(i, &(x, y))| {
                        batch.values[*i] != oracle::reference::mul_wrapping_i32(x, y)
                    });
                    match silent {
                        None => DrillCase::correct(
                            Drill::WorkerPanic,
                            &label,
                            format!("batch of {} completed, all oracle-correct", pairs.len()),
                        ),
                        Some((i, &(x, y))) => DrillCase::wrong(
                            Drill::WorkerPanic,
                            &label,
                            format!("pair {i} ({x},{y}) diverged from the oracle"),
                        ),
                    }
                }
                Err(Error::WorkerPanicked { worker: w, chunk }) => DrillCase::typed(
                    Drill::WorkerPanic,
                    &label,
                    format!("worker {w} panicked on chunk {chunk}, batch abandoned typed"),
                ),
                Err(e) => {
                    DrillCase::wrong(Drill::WorkerPanic, &label, format!("unexpected error {e}"))
                }
            };
            // A kill target inside the pool must actually surface.
            let expected_kill = worker < width.min(pairs.len());
            if expected_kill && case.outcome != "typed-error" {
                out.push(DrillCase::wrong(
                    Drill::WorkerPanic,
                    &label,
                    format!("kill never surfaced: {}", case.detail),
                ));
            } else {
                out.push(case);
            }
        }
    }
    Ok(out)
}

/// Serialises the drill artifact: a `{"schema_version":N}` header, every
/// observed `FaultInjected` event, then one `verify` event per injection
/// with the drill outcome.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_artifact(report: &ChaosReport, w: impl io::Write) -> io::Result<()> {
    let mut sink = JsonlSink::new(w);
    sink.write_header()?;
    sink.write_all(&report.fault_events)?;
    let outcomes: Vec<Event> = report
        .cases
        .iter()
        .map(|c| Event::Verify {
            suite: "chaos",
            case: format!("{}: {}", c.drill, c.plan),
            detail: format!("{}: {}", c.outcome, c.detail),
        })
        .collect();
    sink.write_all(&outcomes)
}

/// The human-readable run summary printed by the subcommand.
#[must_use]
pub fn summarize(report: &ChaosReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "seed {:#x}: {} injections, {} fault events observed",
        report.seed,
        report.cases.len(),
        report.fault_events.len()
    );
    for drill in Drill::ALL {
        let (mut correct, mut typed, mut wrong) = (0u64, 0u64, 0u64);
        for c in report.cases.iter().filter(|c| c.drill == drill.name()) {
            match c.outcome {
                "correct" => correct += 1,
                "typed-error" => typed += 1,
                _ => wrong += 1,
            }
        }
        if correct + typed + wrong > 0 {
            let _ = writeln!(
                s,
                "  {:<16} {correct:>3} correct, {typed:>3} typed errors, {wrong:>3} silent-wrong",
                drill.name()
            );
        }
    }
    for c in report.cases.iter().filter(|c| c.outcome == "SILENT-WRONG") {
        let _ = writeln!(s, "VIOLATION [{}] {}: {}", c.drill, c.plan, c.detail);
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
            "0x2A",
            "--drill",
            "trap-storm",
            "--cases",
            "3",
            "--artifacts",
            "a.jsonl",
        ]))
        .unwrap();
        assert_eq!(o.seed, 0x2A);
        assert_eq!(o.drills, vec![Drill::TrapStorm]);
        assert_eq!(o.cases, 3);
        assert_eq!(o.artifacts_path, "a.jsonl");
        let all = parse_args(&args(&["--drill", "all"])).unwrap();
        assert_eq!(all.drills.len(), 5);
    }

    #[test]
    fn rejects_malformed_arguments() {
        assert!(parse_args(&args(&["--seed"])).is_err());
        assert!(parse_args(&args(&["--seed", "zebra"])).is_err());
        assert!(parse_args(&args(&["--drill", "coffee-spill"])).is_err());
        assert!(parse_args(&args(&["--frobnicate"])).is_err());
    }

    #[test]
    fn simulator_drills_hold_the_contract_and_emit() {
        // The three simulator-level drills are cheap enough to run in full
        // here; the engine and cache drills have dedicated integration
        // coverage in `fault_recovery.rs`.
        let opts = ChaosOptions {
            seed: 0xD1,
            drills: vec![Drill::TrapStorm, Drill::DecodeCorrupt, Drill::RegisterFlip],
            cases: 6,
            ..ChaosOptions::default()
        };
        let report = execute(&opts).unwrap();
        assert_eq!(report.cases.len(), 18);
        assert!(report.passed(), "{}", summarize(&report));
        assert!(
            !report.fault_events.is_empty(),
            "injections must be observable"
        );
        let text = summarize(&report);
        assert!(text.contains("verdict: PASS"), "{text}");
    }

    #[test]
    fn shard_poison_drill_heals_and_hits() {
        let opts = ChaosOptions {
            seed: 0xE7,
            drills: vec![Drill::ShardPoison],
            cases: 2,
            ..ChaosOptions::default()
        };
        let report = execute(&opts).unwrap();
        assert!(report.passed(), "{}", summarize(&report));
        assert!(report
            .cases
            .iter()
            .all(|c| c.outcome == "correct" && c.detail.contains("recovery")));
    }

    #[test]
    fn drills_are_deterministic() {
        let opts = ChaosOptions {
            seed: 0xBEEF,
            drills: vec![Drill::TrapStorm],
            cases: 4,
            ..ChaosOptions::default()
        };
        let a = execute(&opts).unwrap();
        let b = execute(&opts).unwrap();
        let render = |r: &ChaosReport| {
            r.cases
                .iter()
                .map(|c| format!("{}|{}|{}", c.plan, c.outcome, c.detail))
                .collect::<Vec<_>>()
        };
        assert_eq!(render(&a), render(&b));
    }

    #[test]
    fn artifact_is_parseable_jsonl_with_header() {
        let opts = ChaosOptions {
            seed: 1,
            drills: vec![Drill::TrapStorm],
            cases: 2,
            ..ChaosOptions::default()
        };
        let report = execute(&opts).unwrap();
        let mut buf = Vec::new();
        write_artifact(&report, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        let header = telemetry::json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(
            header
                .get("schema_version")
                .and_then(telemetry::json::Json::as_u64),
            Some(telemetry::SCHEMA_VERSION)
        );
        let mut drill_lines = 0;
        for line in lines {
            let doc = telemetry::json::parse(line).unwrap();
            let event = doc.get("event").and_then(telemetry::json::Json::as_str);
            assert!(matches!(event, Some("fault_injected" | "verify")), "{line}");
            if event == Some("verify") {
                drill_lines += 1;
            }
        }
        assert_eq!(drill_lines, report.cases.len());
    }
}
