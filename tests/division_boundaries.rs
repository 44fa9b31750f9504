//! Heavy boundary sweeps for the derived-method division — the places magic
//! numbers break when the `(K+1)y ≥ 2^32` condition is miscomputed are
//! always right next to multiples of the divisor and at the top of the
//! dividend range — plus the three semantic edges (`i32::MIN / -1`, the
//! divide-by-zero `BREAK`, overflow at the top of the multiply range),
//! each pinned across all three execution paths: one-shot interpreter,
//! the compiled routine's prepared program, and batch.

use hppa_muldiv::divconst::{compile_div_const, DivCodegenConfig};
use hppa_muldiv::{millicode, telemetry, Compiler, Error, Runtime, Signedness};
use millicode::divvar::DIV_ZERO_BREAK;
use oracle::reference;
use pa_isa::Reg;
use pa_sim::{run_fn, ExecConfig, Machine, Termination, TrapKind};

fn boundary_dividends(y: u64) -> Vec<u32> {
    let mut xs = vec![0u32, 1, 2, y as u32 / 2, u32::MAX, u32::MAX - 1];
    for k in [1u64, 2, 3, 7, 1 << 8, 1 << 16, u64::from(u32::MAX) / y] {
        let base = k * y;
        for d in -2i64..=2 {
            if let Ok(x) = u32::try_from(base as i64 + d) {
                xs.push(x);
            }
        }
    }
    xs
}

#[test]
fn unsigned_boundaries_every_divisor_to_384() {
    let c = Compiler::new();
    for y in 1..=384u32 {
        let op = c.udiv_const(y).unwrap();
        for x in boundary_dividends(u64::from(y)) {
            assert_eq!(op.run_u32(x).unwrap(), x / y, "{x} / {y}");
        }
    }
}

#[test]
fn unsigned_boundaries_scattered_large_divisors() {
    let c = Compiler::new();
    // Divisors chosen to stress every strategy: large odd primes, odd
    // composites with repeating-pattern multipliers, even splits, powers of
    // two, and near-2^31/2^32 extremes.
    let ys = [
        513u32,
        641,
        999,
        1000,
        1023,
        1024,
        1025,
        4097,
        65535,
        65536,
        65537,
        1_000_003,
        16_777_213,
        (1 << 30) - 1,
        (1 << 30) + 1,
        0x7FFF_FFFF,
        0x8000_0000,
        0x8000_0001,
        u32::MAX - 2,
        u32::MAX,
    ];
    for y in ys {
        let op = c.udiv_const(y).unwrap();
        for x in boundary_dividends(u64::from(y)) {
            assert_eq!(op.run_u32(x).unwrap(), x / y, "{x} / {y}");
        }
    }
}

#[test]
fn signed_boundaries_every_divisor_to_128() {
    let c = Compiler::new();
    for y in 1..=128i32 {
        let op = c.sdiv_const(y).unwrap();
        let ymag = i64::from(y);
        let mut xs: Vec<i64> = vec![0, 1, -1, i64::from(i32::MAX), i64::from(i32::MIN)];
        for k in [1i64, 2, 100, i64::from(i32::MAX) / ymag] {
            for d in -2..=2 {
                xs.push(k * ymag + d);
                xs.push(-(k * ymag) + d);
            }
        }
        for x in xs {
            let Ok(x) = i32::try_from(x) else { continue };
            let expect = (i64::from(x) / ymag) as i32;
            assert_eq!(op.run_i32(x).unwrap(), expect, "{x} / {y}");
        }
    }
}

/// `i32::MIN / -1`: the quotient magnitude `2^31` does not fit a signed
/// word, so C (and the Precision) wrap back to `i32::MIN` with remainder
/// zero rather than trapping.
#[test]
fn min_over_minus_one_wraps_on_every_path() {
    assert_eq!(reference::sdiv_trunc(i32::MIN, -1), Some((i32::MIN, 0)));

    // Compiled constant divide, interpreter path.
    let c = Compiler::new();
    let op = c.sdiv_const(-1).unwrap();
    assert_eq!(op.run_i32(i32::MIN).unwrap(), i32::MIN);

    // Prepared program, bit-for-bit.
    let mut m = Machine::with_regs(&[(Reg::R26, i32::MIN as u32)]);
    let r = op.prepared().run(&mut m);
    assert!(r.termination.is_completed(), "{:?}", r.termination);
    assert_eq!(m.reg(Reg::R28), i32::MIN as u32);

    // Batched path.
    let batch = op.run_batch_i32(&[i32::MIN, -1, 0, i32::MAX]).unwrap();
    assert_eq!(batch.values, vec![i32::MIN, 1, 0, -i32::MAX]);

    // Millicode general divide through the runtime facade and a session.
    let rt = Runtime::new().unwrap();
    let out = rt.div(i32::MIN, -1).unwrap();
    assert_eq!((out.value, out.rem), (i32::MIN, Some(0)));
    let mut session = rt.session();
    let out = session.div(i32::MIN, -1).unwrap();
    assert_eq!((out.value, out.rem), (i32::MIN, Some(0)));
}

/// A zero divisor raises `BREAK 0x2d` in millicode and surfaces as
/// `Error::DivideByZero` from every facade entry point.
#[test]
fn divide_by_zero_traps_on_every_path() {
    assert_eq!(reference::div_restoring(1000, 0), None);

    // Interpreter on the raw millicode routine: the BREAK is visible in
    // the termination itself.
    let p = millicode::divvar::udiv().unwrap();
    let (_, r) = run_fn(
        &p,
        &[(Reg::R26, 1000), (Reg::R25, 0)],
        &ExecConfig::default(),
    );
    match r.termination {
        Termination::Trapped(t) => assert_eq!(t.kind, TrapKind::Break(DIV_ZERO_BREAK)),
        other => panic!("udiv(1000, 0) terminated {other:?}, expected BREAK"),
    }

    // Compile-time rejection for constant divides.
    let c = Compiler::new();
    assert_eq!(c.udiv_const(0).unwrap_err(), Error::DivideByZero);
    assert_eq!(c.sdiv_const(0).unwrap_err(), Error::DivideByZero);
    assert_eq!(c.urem_const(0).unwrap_err(), Error::DivideByZero);
    assert_eq!(c.srem_const(0).unwrap_err(), Error::DivideByZero);

    // Runtime facade, per-call and batched session paths.
    let rt = Runtime::new().unwrap();
    assert_eq!(rt.div(1000, 0).unwrap_err(), Error::DivideByZero);
    assert_eq!(rt.div_unsigned(1000, 0).unwrap_err(), Error::DivideByZero);
    assert_eq!(rt.div_dispatch(1000, 0).unwrap_err(), Error::DivideByZero);
    let mut session = rt.session();
    assert_eq!(
        session
            .div_unsigned_batch(&[(7, 7), (1000, 0)])
            .unwrap_err(),
        Error::DivideByZero
    );
    assert_eq!(
        session.div_dispatch_batch(&[(1000, 0)]).unwrap_err(),
        Error::DivideByZero
    );
}

/// The top of the multiply range: `u32::MAX` through a wrapping constant
/// multiply wraps identically everywhere, and the checked (Pascal) form
/// raises an overflow trap on every path.
#[test]
fn umax_multiply_overflow_on_every_path() {
    let x = u32::MAX as i32; // -1: wrapping multiply treats bits, not signs
    let expect = reference::mul_wrapping_i32(x, 3);

    let c = Compiler::new();
    let op = c.mul_const(3).unwrap();
    assert_eq!(op.run_i32(x).unwrap(), expect);
    let mut m = Machine::with_regs(&[(Reg::R26, x as u32)]);
    let r = op.prepared().run(&mut m);
    assert!(r.termination.is_completed());
    assert_eq!(m.reg(Reg::R28), expect as u32);
    assert_eq!(op.run_batch_i32(&[x]).unwrap().values, vec![expect]);

    // The checked form: operands whose exact product leaves i32 — including
    // ×(−1) of i32::MIN, where the negation itself must trap.
    for (n, big) in [(3, i32::MAX / 2), (-1, i32::MIN)] {
        assert_eq!(reference::mul_checked_chain(big, n), None);
        let checked = c.mul_const_checked(i64::from(n)).unwrap();
        assert_eq!(
            checked.run_i32(big).unwrap_err(),
            Error::Trapped(TrapKind::Overflow)
        );
        let mut m = Machine::with_regs(&[(Reg::R26, big as u32)]);
        let r = checked.prepared().run(&mut m);
        match r.termination {
            Termination::Trapped(t) => assert_eq!(t.kind, TrapKind::Overflow),
            other => panic!("checked {n}*{big} terminated {other:?}, expected overflow"),
        }
        assert_eq!(
            checked.run_batch_i32(&[big]).unwrap_err(),
            Error::Trapped(TrapKind::Overflow)
        );

        // In-range operands still flow through the checked chain untrapped.
        assert_eq!(
            checked.run_i32(1000).ok(),
            reference::mul_checked_chain(1000, n)
        );
    }

    // Checked ×0 cannot overflow: one instruction, zero on every path.
    let zero = c.mul_const_checked(0).unwrap();
    assert_eq!(zero.len(), 1);
    let xs = [i32::MIN, -1, 0, 1, i32::MAX];
    for x in xs {
        assert_eq!(zero.run_i32(x).ok(), reference::mul_checked_chain(x, 0));
        let mut m = Machine::with_regs(&[(Reg::R26, x as u32)]);
        assert!(zero.prepared().run(&mut m).termination.is_completed());
        assert_eq!(m.reg(Reg::R28), 0);
    }
    assert_eq!(zero.run_batch_i32(&xs).unwrap().values, vec![0; xs.len()]);

    // The millicode switched multiply wraps like the oracle at the top too.
    let rt = Runtime::new().unwrap();
    assert_eq!(rt.mul(x, 3).unwrap().value, expect);
    assert_eq!(
        rt.mul_unsigned(u32::MAX, 3).unwrap().value,
        reference::mul_wrapping_u32(u32::MAX, 3)
    );
}

/// The remainder companion of `i32::MIN / -1`: the quotient wraps, so the
/// remainder must be exactly zero — not `i32::MIN - (-1)·i32::MIN`
/// recomputed through the wrapped quotient with a stray sign.
#[test]
fn min_rem_minus_one_is_zero_on_every_path() {
    assert_eq!(reference::sdiv_trunc(i32::MIN, -1), Some((i32::MIN, 0)));

    let c = Compiler::new();
    let op = c.srem_const(-1).unwrap();
    assert_eq!(op.run_i32(i32::MIN).unwrap(), 0);
    // The same path at the neighbouring extremes, anchored to the oracle.
    for x in [i32::MIN + 1, -1, 0, 1, i32::MAX] {
        let (_, r) = reference::sdiv_trunc(x, -1).unwrap();
        assert_eq!(op.run_i32(x).unwrap(), r, "{x} % -1");
    }

    // Prepared program, bit-for-bit.
    let mut m = Machine::with_regs(&[(Reg::R26, i32::MIN as u32)]);
    let r = op.prepared().run(&mut m);
    assert!(r.termination.is_completed(), "{:?}", r.termination);
    assert_eq!(m.reg(Reg::R28), 0);

    // Batched path and the millicode general divide's remainder output.
    let batch = op.run_batch_i32(&[i32::MIN, 7, -7]).unwrap();
    assert_eq!(batch.values, vec![0, 0, 0]);
    let rt = Runtime::new().unwrap();
    assert_eq!(rt.div(i32::MIN, -1).unwrap().rem, Some(0));
}

/// A forced trap swept across the checked multiply chain, pinned to its
/// `SUBO`: whatever interleaving of injected `BREAK` and genuine overflow
/// trap wins, the outcome is always typed — never a wrapped value escaping
/// from a preempted checked chain.
#[test]
fn injected_trap_at_the_subo_never_leaks_an_unchecked_product() {
    use hppa_muldiv::sim::fault::CHAOS_BREAK;
    use hppa_muldiv::FaultPlan;

    // Overflow-safe chains are SUB-free by construction, but a negative
    // constant ends with the negating `SUBO R0 - dest`: the one trapping
    // subtract a checked multiply can carry.
    let n = -7i64;
    let probe = Compiler::new().mul_const_checked(n).unwrap();
    let subo = probe
        .program()
        .insns()
        .iter()
        .position(|i| matches!(i.op, pa_isa::Op::Sub { trap: true, .. }))
        .expect("checked ×(-7) must end in a SUBO");

    let benign = 1000i32;
    let overflowing = i32::MAX / 2; // the |n| chain's 7 · (i32::MAX / 2) leaves i32
    assert_eq!(reference::mul_checked_chain(overflowing, n as i32), None);

    // Sweep the injection across the whole chain, including exactly the
    // SUBO's cycle (straight-line code: one cycle per instruction).
    for step in 0..=(subo as u64 + 2) {
        let c = Compiler::builder()
            .fault_plan(FaultPlan::ForceTrap {
                step,
                code: CHAOS_BREAK,
            })
            .build();
        let op = c.mul_const_checked(n).unwrap();
        for &x in &[benign, overflowing] {
            match op.run_i32(x) {
                // The forced trap preempted the chain.
                Err(Error::Trapped(TrapKind::Break(code))) => assert_eq!(code, CHAOS_BREAK),
                // The genuine overflow check fired first — only legal for
                // the overflowing operand.
                Err(Error::Trapped(TrapKind::Overflow)) => {
                    assert_eq!(x, overflowing, "benign operand cannot overflow")
                }
                // A completed run slipped past the injection only if the
                // machine check certified it; the value must be exact.
                Ok(v) => {
                    assert_eq!(Some(v), reference::mul_checked_chain(x, n as i32));
                }
                Err(other) => panic!("step {step}, x {x}: untyped escape {other}"),
            }
        }
    }
}

/// A divide compile searches each candidate exponent's multiplier once:
/// the plan hands its chain to the emitter, for an even divisor's odd part
/// too. `/7` tries eight exponents, and `/14` is `/7` after a shift.
#[test]
fn each_divide_compile_searches_each_exponent_once() {
    let cfg = DivCodegenConfig::default();
    for y in [7u32, 14] {
        let (program, events) =
            telemetry::collect(|| compile_div_const(y, Signedness::Unsigned, &cfg));
        assert!(program.is_ok(), "y = {y}");
        let searches = events
            .iter()
            .filter(|e| matches!(e, telemetry::Event::ChainSearch { .. }))
            .count();
        assert_eq!(searches, 8, "y = {y}");
    }
}

#[test]
fn strategy_consistency_between_plan_and_code() {
    // `plan` must describe what `compile` emits: power-of-two divisors get
    // one instruction, even splits get the shift prefix, magic bodies stay
    // within the documented width.
    let c = Compiler::new();
    for y in 2..=256u32 {
        let strategy = hppa_muldiv::divconst::plan(y, Signedness::Unsigned).unwrap();
        let op = c.udiv_const(y).unwrap();
        match strategy {
            hppa_muldiv::divconst::DivStrategy::PowerOfTwo { .. } => {
                assert_eq!(op.len(), 1, "y = {y}");
            }
            hppa_muldiv::divconst::DivStrategy::EvenSplit { .. } => {
                assert!(op.len() >= 2, "y = {y}");
            }
            hppa_muldiv::divconst::DivStrategy::Magic { .. } => {
                assert!(op.len() >= 4, "y = {y}");
            }
            other => unreachable!("y ≥ 2 never plans {other}"),
        }
    }
}
