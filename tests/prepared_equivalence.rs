//! The run loop's two instantiations must agree across the full E0–E14
//! program set — every millicode routine and every compiled constant
//! operation — on representative and randomized operands, under both
//! overflow models. A bare `PreparedProgram::run` (the uninstrumented loop
//! every production run takes) is compared with an observed `run_fn` (stats,
//! trace and profile on: the instrumented loop). "Bit-identical" means the
//! final machine state and all run counters (cycles, executed, nullified,
//! taken branches) and the termination agree exactly; the observed run's
//! stats, trace and profile must also account for every slot. An observed
//! `PreparedProgram::run`, whose stats regions come from the table built at
//! preparation, must return the observed `run_fn`'s whole result.
//!
//! Equivalence alone would let both runs be identically *wrong*, so each
//! completed run is additionally anchored to `oracle::reference` — the
//! independent bit-serial multiplier and restoring divider.

use hppa_muldiv::{millicode, Compiler, DISPATCH_LIMIT};
use oracle::reference;
use pa_isa::{Program, Reg};
use pa_sim::{run_fn, ExecConfig, Machine, OverflowModel, PreparedProgram, RunResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `p` bare and observed with `R26 = a`, `R25 = b` under each overflow
/// model, demands exact equality, and hands back the default model's final
/// state for semantic checks.
fn assert_bit_identical(name: &str, p: &Program, a: u32, b: u32) -> (Machine, RunResult) {
    let inputs = [(Reg::R26, a), (Reg::R25, b)];
    let mut anchored = None;
    for overflow in [OverflowModel::CheapCircuit, OverflowModel::Precise] {
        let config = ExecConfig {
            overflow,
            ..ExecConfig::default()
        };
        let observed = config.clone().with_stats().with_trace().with_profile();
        let (m_obs, r_obs) = run_fn(p, &inputs, &observed);
        let mut m_bare = Machine::with_regs(&inputs);
        let r_bare = PreparedProgram::new(p, config).run(&mut m_bare);
        let what = format!("{name}({a}, {b}) under {overflow:?}");
        let mut m_prep = Machine::with_regs(&inputs);
        let r_prep = PreparedProgram::new(p, observed).run(&mut m_prep);
        assert_eq!(m_prep, m_obs, "{what}: observed prepared machine state");
        assert_eq!(r_prep, r_obs, "{what}: observed prepared result");
        assert_eq!(m_obs, m_bare, "{what}: machine state");
        assert_eq!(r_obs.cycles, r_bare.cycles, "{what}: cycles");
        assert_eq!(r_obs.executed, r_bare.executed, "{what}: executed");
        assert_eq!(r_obs.nullified, r_bare.nullified, "{what}: nullified");
        assert_eq!(
            r_obs.taken_branches, r_bare.taken_branches,
            "{what}: taken branches"
        );
        assert_eq!(r_obs.termination, r_bare.termination, "{what}: termination");
        let stats = r_obs.stats.as_deref().expect("stats were on");
        assert_eq!(stats.executed_total(), r_obs.executed, "{what}: stats");
        assert_eq!(r_obs.trace.len() as u64, r_obs.cycles, "{what}: trace");
        assert_eq!(
            r_obs.profile.iter().sum::<u64>(),
            r_obs.executed,
            "{what}: profile"
        );
        if overflow == OverflowModel::default() {
            anchored = Some((m_bare, r_bare));
        }
    }
    anchored.expect("the default overflow model is one of the two")
}

/// Representative corners plus seeded random operands.
fn operand_pairs(seed: u64, random: usize) -> Vec<(u32, u32)> {
    let mut pairs = vec![
        (0u32, 0u32),
        (0, 60_000),
        (1, 1),
        (1, u32::MAX),
        (15, 60_000),
        (255, 60_000),
        (4095, 60_000),
        (46_340, 46_340),
        (60_000, 5),
        (i32::MAX as u32, 1),
        (i32::MIN as u32, 1),
        (u32::MAX, u32::MAX),
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..random {
        pairs.push((rng.gen(), rng.gen()));
    }
    pairs
}

#[test]
fn every_multiply_routine_is_bit_identical() {
    let routines: Vec<(&str, Program)> = vec![
        ("naive", millicode::mulvar::naive().unwrap()),
        ("early_exit", millicode::mulvar::early_exit().unwrap()),
        ("nibble", millicode::mulvar::nibble().unwrap()),
        ("swap", millicode::mulvar::swap().unwrap()),
        (
            "switched_signed",
            millicode::mulvar::switched(true).unwrap(),
        ),
        (
            "switched_unsigned",
            millicode::mulvar::switched(false).unwrap(),
        ),
    ];
    for (name, p) in &routines {
        for (a, b) in operand_pairs(0xE0, 40) {
            let (m, r) = assert_bit_identical(name, p, a, b);
            // Signed and unsigned products share their low word, so one
            // oracle model anchors every multiply flavour.
            assert!(r.termination.is_completed(), "{name}({a}, {b})");
            assert_eq!(
                m.reg(Reg::R28),
                reference::mul_wrapping_u32(a, b),
                "{name}({a}, {b}) vs oracle"
            );
        }
    }
}

#[test]
fn every_divide_routine_is_bit_identical() {
    type Oracle = fn(u32, u32) -> (u32, Option<u32>);
    fn unsigned(a: u32, y: u32) -> (u32, Option<u32>) {
        let (q, r) = reference::div_restoring(a, y).unwrap();
        (q, Some(r))
    }
    fn signed(a: u32, y: u32) -> (u32, Option<u32>) {
        let (q, r) = reference::sdiv_trunc(a as i32, y as i32).unwrap();
        (q as u32, Some(r as u32))
    }
    fn dispatch(a: u32, y: u32) -> (u32, Option<u32>) {
        // The dispatch table returns only the quotient register.
        (reference::udiv(a, y).unwrap(), None)
    }
    let routines: Vec<(&str, Program, Oracle)> = vec![
        ("udiv", millicode::divvar::udiv().unwrap(), unsigned),
        ("sdiv", millicode::divvar::sdiv().unwrap(), signed),
        (
            "small_dispatch",
            millicode::divvar::small_dispatch(DISPATCH_LIMIT).unwrap(),
            dispatch,
        ),
        (
            "restoring_udiv",
            millicode::divvar::restoring_udiv().unwrap(),
            unsigned,
        ),
    ];
    let mut rng = StdRng::seed_from_u64(0xE13);
    for (name, p, oracle) in &routines {
        let check = |a: u32, y: u32| {
            let (m, r) = assert_bit_identical(name, p, a, y);
            assert!(r.termination.is_completed(), "{name}({a}, {y})");
            let (q, rem) = oracle(a, y);
            assert_eq!(m.reg(Reg::R28), q, "{name}({a}, {y}) quotient vs oracle");
            if let Some(rem) = rem {
                assert_eq!(m.reg(Reg::R29), rem, "{name}({a}, {y}) remainder vs oracle");
            }
        };
        for (a, _) in operand_pairs(0xE4, 20) {
            for y in [1u32, 2, 7, 19, 20, 97, 65_537, 0x8000_0000, u32::MAX] {
                check(a, y);
            }
            let y: u32 = rng.gen_range(1..=u32::MAX);
            check(a, y);
        }
        // Division by zero BREAKs identically too (no quotient to check —
        // the oracle returns None for a zero divisor).
        let (_, r) = assert_bit_identical(name, p, 1000, 0);
        assert!(!r.termination.is_completed(), "{name}(1000, 0) must BREAK");
    }
}

#[test]
fn every_compiled_constant_op_is_bit_identical() {
    // Expected value per operand, `None` meaning "must trap".
    type Expect = Box<dyn Fn(u32) -> Option<u32>>;
    let c = Compiler::new();
    let mut rng = StdRng::seed_from_u64(0xE14);
    let mut xs: Vec<u32> = vec![0, 1, 2, 1000, i32::MAX as u32, i32::MIN as u32, u32::MAX];
    xs.extend((0..20).map(|_| rng.gen::<u32>()));

    let mut ops: Vec<(String, _, Expect)> = Vec::new();
    for n in [0i64, 1, 2, 3, 10, 59, 100, 641, 1979, -7, -100, 46_341] {
        ops.push((
            format!("mul_const({n})"),
            c.mul_const(n).unwrap(),
            Box::new(move |x| Some(reference::mul_wrapping_i32(x as i32, n as i32) as u32)),
        ));
        // Not every chain has a trapping-capable form; cover those that do.
        if let Ok(op) = c.mul_const_checked(n) {
            ops.push((
                format!("mul_const_checked({n})"),
                op,
                Box::new(move |x| {
                    reference::mul_checked_chain(x as i32, n as i32).map(|v| v as u32)
                }),
            ));
        }
    }
    for y in [1u32, 2, 3, 5, 7, 10, 16, 19, 641, 1_000_000] {
        ops.push((
            format!("udiv_const({y})"),
            c.udiv_const(y).unwrap(),
            Box::new(move |x| reference::udiv(x, y)),
        ));
        ops.push((
            format!("urem_const({y})"),
            c.urem_const(y).unwrap(),
            Box::new(move |x| reference::urem(x, y)),
        ));
        ops.push((
            format!("sdiv_const({y})"),
            c.sdiv_const(y as i32).unwrap(),
            Box::new(move |x| reference::sdiv_trunc(x as i32, y as i32).map(|(q, _)| q as u32)),
        ));
        ops.push((
            format!("sdiv_const(-{y})"),
            c.sdiv_const(-(y as i32)).unwrap(),
            Box::new(move |x| reference::sdiv_trunc(x as i32, -(y as i32)).map(|(q, _)| q as u32)),
        ));
        ops.push((
            format!("srem_const({y})"),
            c.srem_const(y as i32).unwrap(),
            Box::new(move |x| reference::sdiv_trunc(x as i32, y as i32).map(|(_, r)| r as u32)),
        ));
    }

    for (name, op, expect) in &ops {
        for &x in &xs {
            let (m, r) = assert_bit_identical(name, op.program(), x, 0);
            match expect(x) {
                Some(v) => {
                    assert!(r.termination.is_completed(), "{name}({x})");
                    assert_eq!(m.reg(Reg::R28), v, "{name}({x}) vs oracle");
                }
                None => assert!(
                    !r.termination.is_completed(),
                    "{name}({x}) must trap per the oracle"
                ),
            }
        }
    }
}
