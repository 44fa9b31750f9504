//! End-to-end lint verification of the real code generators.
//!
//! Every program the §5 and §7 generators emit must come back clean and
//! *proved*; programs with injected miscompiles (the classic off-by-one
//! magic constant, a dropped shift-and-add) must be rejected with `PL007`;
//! hand-written structural mistakes must hit their `PL00x` codes.

#![warn(clippy::pedantic)]

use divconst::{compile_div_const, compile_div_const_i32, DivCodegenConfig, Signedness};
use mulconst::{compile_mul_const, CodegenConfig};
use pa_isa::{Cond, Insn, Op, Program, ProgramBuilder, Reg};
use pa_lint::{lint_program, Claim, FindingCode, LintLevel, LintSpec};

fn assert_proved(program: &Program, spec: &LintSpec, what: &str) {
    let report = lint_program(program, spec);
    assert!(report.is_clean(), "{what}: {report}");
    assert!(report.proved, "{what}: clean but not proved");
}

fn has(report: &pa_lint::Report, code: FindingCode) -> bool {
    report.findings.iter().any(|f| f.code == code)
}

// ---------------------------------------------------------------------------
// §5 constant multiplication
// ---------------------------------------------------------------------------

#[test]
fn mul_chains_prove_clean() {
    let cfg = CodegenConfig::default();
    let mut constants: Vec<i64> = (0..=300).collect();
    constants.extend([
        625,
        1000,
        1024,
        1025,
        4095,
        9999,
        10_000,
        65_535,
        123_456_789,
        i64::from(i32::MAX),
        i64::from(i32::MIN),
        -1,
        -3,
        -10,
        -625,
        -9999,
    ]);
    for n in constants {
        let p = compile_mul_const(n, &cfg).unwrap();
        let spec = LintSpec::mul_const(n, false, cfg.source, cfg.dest);
        assert_proved(&p, &spec, &format!("mul by {n}"));
    }
}

#[test]
fn checked_mul_chains_prove_clean() {
    let cfg = CodegenConfig::with_overflow_checking();
    for n in [2i64, 3, 5, 10, 100, 255, 641, 10_000] {
        let p = compile_mul_const(n, &cfg).unwrap();
        let spec = LintSpec::mul_const(n, true, cfg.source, cfg.dest);
        assert_proved(&p, &spec, &format!("checked mul by {n}"));
    }
}

#[test]
fn checked_mul_claimed_unchecked_is_flagged_pl006() {
    // The trapping variant claimed trap-free: every SHxADD,O trips PL006.
    let cfg = CodegenConfig::with_overflow_checking();
    let p = compile_mul_const(10, &cfg).unwrap();
    let spec = LintSpec::mul_const(10, false, cfg.source, cfg.dest);
    let report = lint_program(&p, &spec);
    assert!(has(&report, FindingCode::TrapOnTrapFree), "{report}");
}

#[test]
fn checked_mul_that_cannot_trap_is_rejected() {
    // Checked x * -1 as it was once emitted: a plain negate, which returns
    // i32::MIN for i32::MIN where the checked claim demands a trap. The
    // wrapped product is right mod 2^32, so only the missing trap shows.
    let mut b = ProgramBuilder::new();
    b.sub(Reg::R0, Reg::R26, Reg::R28);
    let p = b.build().unwrap();
    let report = lint_program(&p, &LintSpec::mul_const(-1, true, Reg::R26, Reg::R28));
    assert!(has(&report, FindingCode::Unverified), "{report}");
    assert!(!report.is_clean());

    // The trapping negate proves clean, and so do the two constants whose
    // checked product can never overflow, without a trap.
    let mut b = ProgramBuilder::new();
    b.subo(Reg::R0, Reg::R26, Reg::R28);
    let subo = b.build().unwrap();
    assert_proved(
        &subo,
        &LintSpec::mul_const(-1, true, Reg::R26, Reg::R28),
        "x * -1",
    );
    let cfg = CodegenConfig::with_overflow_checking();
    for n in [0i64, 1] {
        let p = compile_mul_const(n, &cfg).unwrap();
        let spec = LintSpec::mul_const(n, true, cfg.source, cfg.dest);
        assert_proved(&p, &spec, &format!("checked mul by {n}"));
    }
}

// ---------------------------------------------------------------------------
// §7 constant division, all strategy shapes
// ---------------------------------------------------------------------------

/// Divisors covering every codegen shape: identity, small/large powers of
/// two, even splits, pair- and triple-precision magic, and (signed) both
/// branch bodies.
const UNSIGNED_DIVISORS: &[u32] = &[
    1,
    2,
    3,
    4,
    5,
    6,
    7,
    8,
    9,
    10,
    11,
    12,
    13,
    14,
    15,
    16,
    24,
    25,
    60,
    100,
    127,
    128,
    231,
    365,
    641,
    1000,
    4096,
    10_000,
    65_536,
    1 << 20,
    1 << 31,
    (1 << 31) + 1,
    u32::MAX,
];

const SIGNED_DIVISORS: &[i32] = &[
    1,
    -1,
    2,
    -2,
    3,
    -3,
    4,
    -4,
    5,
    -5,
    6,
    -6,
    7,
    -7,
    8,
    -8,
    10,
    -10,
    12,
    -12,
    25,
    -25,
    60,
    -60,
    641,
    -641,
    1000,
    -1000,
    4096,
    -4096,
    10_000,
    -10_000,
    1 << 30,
    -(1 << 30),
    i32::MAX,
    i32::MIN,
];

#[test]
fn udiv_sequences_prove_clean() {
    let cfg = DivCodegenConfig::default();
    for &y in UNSIGNED_DIVISORS {
        let p = compile_div_const(y, Signedness::Unsigned, &cfg).unwrap();
        let spec = LintSpec::div_const(Claim::UdivConst { y }, cfg.source, cfg.dest);
        assert_proved(&p, &spec, &format!("x / {y}u"));
    }
}

#[test]
fn sdiv_sequences_prove_clean() {
    let cfg = DivCodegenConfig::default();
    for &y in SIGNED_DIVISORS {
        let p = compile_div_const_i32(y, &cfg).unwrap();
        let spec = LintSpec::div_const(Claim::SdivConst { y }, cfg.source, cfg.dest);
        assert_proved(&p, &spec, &format!("x / {y}"));
    }
}

/// The remainder composition the compiler uses: quotient program, multiply
/// the quotient back by `y`, subtract from the dividend.
fn rem_program(div: &Program, y: i64, cfg: &DivCodegenConfig) -> Program {
    let mul_cfg = CodegenConfig {
        source: cfg.dest,
        dest: cfg.temps[0],
        temps: cfg.temps[1..6].to_vec(),
        check_overflow: false,
    };
    let mul = compile_mul_const(y, &mul_cfg).unwrap();
    let combined = div.concat(&mul, "_mulback");
    let mut b = ProgramBuilder::new();
    b.sub(cfg.source, mul_cfg.dest, cfg.dest);
    combined.concat(&b.build().unwrap(), "_rem")
}

#[test]
fn urem_sequences_prove_clean() {
    let cfg = DivCodegenConfig::default();
    for &y in UNSIGNED_DIVISORS {
        let div = compile_div_const(y, Signedness::Unsigned, &cfg).unwrap();
        let p = rem_program(&div, i64::from(y), &cfg);
        let spec = LintSpec::div_const(Claim::UremConst { y }, cfg.source, cfg.dest);
        assert_proved(&p, &spec, &format!("x % {y}u"));
    }
}

#[test]
fn srem_sequences_prove_clean() {
    let cfg = DivCodegenConfig::default();
    for &y in SIGNED_DIVISORS {
        let div = compile_div_const_i32(y, &cfg).unwrap();
        let p = rem_program(&div, i64::from(y), &cfg);
        let spec = LintSpec::div_const(Claim::SremConst { y }, cfg.source, cfg.dest);
        assert_proved(&p, &spec, &format!("x % {y}"));
    }
}

#[test]
fn wrong_claim_is_rejected() {
    // A correct /3 program does not prove /5 (or *3, or %3 with the wrong
    // register) — the verifier is not vacuous.
    let cfg = DivCodegenConfig::default();
    let p = compile_div_const(3, Signedness::Unsigned, &cfg).unwrap();
    let spec = LintSpec::div_const(Claim::UdivConst { y: 5 }, cfg.source, cfg.dest);
    let report = lint_program(&p, &spec);
    assert!(has(&report, FindingCode::Unverified), "{report}");
    assert!(!report.proved);
}

// ---------------------------------------------------------------------------
// Injected miscompiles (the satellite regression suite mirrors these at the
// compiler layer; here the mutation is applied to the raw program)
// ---------------------------------------------------------------------------

/// The classic magic-divide bug: the rounding constant off by one. Bumps the
/// immediate of the first `ADDI` (the `x + 1` base or the `r - 1` fixup).
fn bump_first_addi(p: &Program) -> Program {
    let mut insns: Vec<Insn> = p.iter().copied().collect();
    let at = insns
        .iter()
        .position(|i| matches!(i.op, Op::Addi { .. }))
        .expect("division program has an ADDI");
    if let Op::Addi { i, b, t, trap } = insns[at].op {
        let bumped = pa_isa::Im11::new(i.value() + 1).expect("immediate stays in range");
        insns[at] = Insn::new(Op::Addi {
            i: bumped,
            b,
            t,
            trap,
        });
    }
    Program::new(insns).unwrap()
}

/// Drops the first `SHxADD` from a multiply chain.
fn drop_first_shadd(p: &Program) -> Program {
    let at = p
        .iter()
        .position(|i| matches!(i.op, Op::ShAdd { .. }))
        .expect("multiply chain has a SHADD");
    let insns: Vec<Insn> = p
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != at)
        .map(|(_, insn)| *insn)
        .collect();
    Program::new(insns).unwrap()
}

#[test]
fn off_by_one_magic_constant_is_rejected() {
    let cfg = DivCodegenConfig::default();
    for y in [3u32, 7, 10, 641] {
        let p = bump_first_addi(&compile_div_const(y, Signedness::Unsigned, &cfg).unwrap());
        let spec = LintSpec::div_const(Claim::UdivConst { y }, cfg.source, cfg.dest);
        let report = lint_program(&p, &spec);
        assert!(has(&report, FindingCode::Unverified), "x / {y}u: {report}");
    }
}

#[test]
fn dropped_shadd_is_rejected() {
    let cfg = CodegenConfig::default();
    for n in [10i64, 100, 625, 9999] {
        let p = drop_first_shadd(&compile_mul_const(n, &cfg).unwrap());
        let spec = LintSpec::mul_const(n, false, cfg.source, cfg.dest);
        let report = lint_program(&p, &spec);
        assert!(has(&report, FindingCode::Unverified), "x * {n}: {report}");
    }
}

// ---------------------------------------------------------------------------
// Millicode listings (structural rules only)
// ---------------------------------------------------------------------------

fn mul_millicode_spec() -> LintSpec {
    LintSpec::structural(vec![Reg::R26, Reg::R25], vec![Reg::R28])
}

fn div_millicode_spec() -> LintSpec {
    LintSpec::structural(vec![Reg::R26, Reg::R25], vec![Reg::R28, Reg::R29])
}

#[test]
fn millicode_listings_are_structurally_clean() {
    let listings: Vec<(&str, Program, LintSpec)> = vec![
        (
            "mulvar naive",
            millicode::mulvar::naive().unwrap(),
            mul_millicode_spec(),
        ),
        (
            "mulvar early_exit",
            millicode::mulvar::early_exit().unwrap(),
            mul_millicode_spec(),
        ),
        (
            "mulvar nibble",
            millicode::mulvar::nibble().unwrap(),
            mul_millicode_spec(),
        ),
        (
            "mulvar swap",
            millicode::mulvar::swap().unwrap(),
            mul_millicode_spec(),
        ),
        (
            "mulvar switched/u",
            millicode::mulvar::switched(false).unwrap(),
            mul_millicode_spec(),
        ),
        (
            "mulvar switched/s",
            millicode::mulvar::switched(true).unwrap(),
            mul_millicode_spec(),
        ),
        (
            "divvar udiv",
            millicode::divvar::udiv().unwrap(),
            div_millicode_spec(),
        ),
        (
            "divvar sdiv",
            millicode::divvar::sdiv().unwrap(),
            div_millicode_spec(),
        ),
        (
            "divvar restoring",
            millicode::divvar::restoring_udiv().unwrap(),
            div_millicode_spec(),
        ),
        (
            "divvar dispatch",
            millicode::divvar::small_dispatch(16).unwrap(),
            div_millicode_spec(),
        ),
    ];
    for (name, p, spec) in listings {
        let report = lint_program(&p, &spec);
        assert!(report.is_clean(), "{name}: {report}");
        assert!(!report.proved, "{name}: structural-only runs never prove");
    }
}

#[test]
fn strict_level_flags_branch_shadows() {
    // The millicode dispatch idiom (COMICLR with a branch in its shadow) is
    // allowed at Default and flagged at Strict.
    let p = millicode::divvar::small_dispatch(16).unwrap();
    let default = lint_program(&p, &div_millicode_spec());
    let strict = lint_program(&p, &div_millicode_spec().with_level(LintLevel::Strict));
    assert!(default.is_clean(), "{default}");
    assert!(has(&strict, FindingCode::NullifyShadow), "{strict}");
}

// ---------------------------------------------------------------------------
// Hand-written structural samples
// ---------------------------------------------------------------------------

#[test]
fn uninit_read_is_flagged_pl001() {
    // r29 is never written on the fall-through path but feeds the result.
    let mut b = ProgramBuilder::new();
    b.add(Reg::R26, Reg::R29, Reg::R28);
    let p = b.build().unwrap();
    let spec = LintSpec::structural(vec![Reg::R26], vec![Reg::R28]);
    let report = lint_program(&p, &spec);
    assert!(has(&report, FindingCode::UninitRead), "{report}");
}

#[test]
fn back_to_back_nullifiers_are_flagged_pl005() {
    let mut b = ProgramBuilder::new();
    b.comclr(Cond::Lt, Reg::R26, Reg::R0, Reg::R1);
    b.comclr(Cond::Gt, Reg::R26, Reg::R0, Reg::R1);
    b.copy(Reg::R1, Reg::R28);
    let p = b.build().unwrap();
    let spec = LintSpec::structural(vec![Reg::R26], vec![Reg::R28]);
    let report = lint_program(&p, &spec);
    assert!(has(&report, FindingCode::NullifyShadow), "{report}");
}

#[test]
fn write_to_r0_is_flagged_pl002() {
    let mut b = ProgramBuilder::new();
    b.add(Reg::R26, Reg::R26, Reg::R0);
    b.copy(Reg::R26, Reg::R28);
    let p = b.build().unwrap();
    let spec = LintSpec::structural(vec![Reg::R26], vec![Reg::R28]);
    let report = lint_program(&p, &spec);
    assert!(has(&report, FindingCode::WriteToR0), "{report}");
}

#[test]
fn dead_instruction_is_flagged_pl003() {
    // The first SH1ADD's value can never reach r28.
    let mut b = ProgramBuilder::new();
    b.sh1add(Reg::R26, Reg::R26, Reg::R1);
    b.sh1add(Reg::R26, Reg::R26, Reg::R28);
    let p = b.build().unwrap();
    let spec = LintSpec::mul_const(3, false, Reg::R26, Reg::R28);
    let report = lint_program(&p, &spec);
    assert!(has(&report, FindingCode::DeadInsn), "{report}");
}

#[test]
fn undominated_carry_is_flagged_pl004() {
    let mut b = ProgramBuilder::new();
    b.addc(Reg::R26, Reg::R0, Reg::R28);
    let p = b.build().unwrap();
    let spec = LintSpec::structural(vec![Reg::R26], vec![Reg::R28]);
    let report = lint_program(&p, &spec);
    assert!(has(&report, FindingCode::UndominatedCarry), "{report}");
}

#[test]
fn lint_level_off_reports_nothing() {
    let mut b = ProgramBuilder::new();
    b.addc(Reg::R26, Reg::R0, Reg::R28); // would be PL004
    let p = b.build().unwrap();
    let spec = LintSpec::structural(vec![Reg::R26], vec![Reg::R28]).with_level(LintLevel::Off);
    let report = lint_program(&p, &spec);
    assert!(report.is_clean());
    assert!(!report.proved);
}
