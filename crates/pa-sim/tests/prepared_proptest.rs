//! Property tests for the run loop's two instantiations: a bare run (the
//! uninstrumented loop every production run takes) must be bit-identical to
//! an observed run (stats, trace and profile on: the instrumented loop) —
//! same final machine, same cycle, executed, nullified and taken-branch
//! counts, same termination — under both overflow models, across randomized
//! operands for programs covering every op class. The observed run's
//! records must also account for every slot, and an observed prepared run,
//! which labels its stats from the region table built at preparation, must
//! return exactly the observed reference run's result.

use pa_isa::{BitSense, Cond, Program, ProgramBuilder, Reg, ShAmount};
use pa_sim::{run_fn, ExecConfig, Machine, OverflowModel, PreparedProgram};
use proptest::prelude::*;

fn assert_equivalent(p: &Program, inputs: &[(Reg, u32)], config: &ExecConfig) {
    for overflow in [OverflowModel::CheapCircuit, OverflowModel::Precise] {
        let config = ExecConfig {
            overflow,
            ..config.clone()
        };
        let mut m_bare = Machine::with_regs(inputs);
        let r_bare = PreparedProgram::new(p, config.clone()).run(&mut m_bare);
        let observed = config.with_stats().with_trace().with_profile();
        let (m_obs, r_obs) = run_fn(p, inputs, &observed);
        let mut m_prep = Machine::with_regs(inputs);
        let r_prep = PreparedProgram::new(p, observed).run(&mut m_prep);
        assert_eq!(m_prep, m_obs, "observed prepared machine state must match");
        assert_eq!(r_prep, r_obs, "observed prepared result must match");
        assert_eq!(m_bare, m_obs, "machine state must match");
        assert_eq!(r_bare.cycles, r_obs.cycles);
        assert_eq!(r_bare.executed, r_obs.executed);
        assert_eq!(r_bare.nullified, r_obs.nullified);
        assert_eq!(r_bare.taken_branches, r_obs.taken_branches);
        assert_eq!(r_bare.termination, r_obs.termination);
        let stats = r_obs.stats.as_deref().expect("stats were on");
        assert_eq!(stats.executed_total(), r_obs.executed);
        assert_eq!(r_obs.trace.len() as u64, r_obs.cycles);
        assert_eq!(r_obs.profile.iter().sum::<u64>(), r_obs.executed);
    }
}

/// Straight-line arithmetic touching carries, borrows, shift-adds, logic
/// ops, conditional clears and extracts.
fn arith_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.add(Reg::R26, Reg::R25, Reg::R1);
    b.addc(Reg::R26, Reg::R1, Reg::R2);
    b.sub(Reg::R1, Reg::R25, Reg::R3);
    b.subb(Reg::R2, Reg::R3, Reg::R4);
    b.sh2add(Reg::R3, Reg::R4, Reg::R5);
    b.xor(Reg::R5, Reg::R26, Reg::R6);
    b.andcm(Reg::R6, Reg::R25, Reg::R7);
    b.comclr(Cond::Lt, Reg::R7, Reg::R26, Reg::R8);
    b.or(Reg::R7, Reg::R8, Reg::R9);
    b.extru(Reg::R9, 23, 16, Reg::R10);
    b.shd(Reg::R9, Reg::R10, 7, Reg::R11);
    b.sar(Reg::R9, 5, Reg::R12);
    b.comiclr(Cond::Eq, 0, Reg::R12, Reg::R13);
    b.addi(17, Reg::R13, Reg::R14);
    b.subi(100, Reg::R14, Reg::R15);
    b.build().unwrap()
}

/// The §4 DS/ADDC division loop — exercises `DS`'s V-bit state machine.
fn ds_divide_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.copy(Reg::R0, Reg::R1);
    b.add(Reg::R26, Reg::R26, Reg::R26);
    for _ in 0..32 {
        b.ds(Reg::R1, Reg::R25, Reg::R1);
        b.addc(Reg::R26, Reg::R26, Reg::R26);
    }
    b.build().unwrap()
}

/// A nibble-style loop with `EXTRU`, `BLR` dispatch, `BB` tests and `ADDIB`
/// back-edges — every control-flow op class in one program.
fn branchy_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.ldi(8, Reg::R3); // trip counter
    b.copy(Reg::R0, Reg::R28);
    let top = b.here("loop");
    b.extru(Reg::R26, 31, 3, Reg::R1); // low three bits drive the dispatch
    let table = b.named_label("table");
    b.blr(Reg::R1, table);
    b.nop();
    b.bind(table);
    // Eight two-slot table entries.
    let join = b.named_label("join");
    for i in 0..8i32 {
        b.addi(i, Reg::R28, Reg::R28);
        b.b(join);
    }
    b.bind(join);
    b.shr(Reg::R26, 3, Reg::R26);
    let skip = b.named_label("skip");
    b.bb_lsb(Reg::R25, BitSense::Clear, skip);
    b.sh1add(Reg::R28, Reg::R0, Reg::R28);
    b.bind(skip);
    b.shr(Reg::R25, 1, Reg::R25);
    b.addib(-1, Reg::R3, Cond::Ne, top);
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn arith_matches(a in any::<u32>(), b in any::<u32>()) {
        let p = arith_program();
        let inputs = [(Reg::R26, a), (Reg::R25, b)];
        assert_equivalent(&p, &inputs, &ExecConfig::default());
    }

    #[test]
    fn ds_divide_matches(x in any::<u32>(), y in 1u32..0x8000_0000) {
        let p = ds_divide_program();
        let inputs = [(Reg::R26, x), (Reg::R25, y)];
        assert_equivalent(&p, &inputs, &ExecConfig::default());
        // Both must also agree with the quotient itself.
        let mut m = Machine::with_regs(&inputs);
        PreparedProgram::new(&p, ExecConfig::default()).run(&mut m);
        prop_assert_eq!(m.reg(Reg::R26), x / y);
    }

    #[test]
    fn branchy_matches(a in any::<u32>(), b in any::<u32>()) {
        let p = branchy_program();
        assert_equivalent(&p, &[(Reg::R26, a), (Reg::R25, b)], &ExecConfig::default());
    }

    #[test]
    fn trapping_adds_match(a in any::<u32>(), b in any::<u32>()) {
        // ADDO/SUBO/SH3ADDO trap on signed overflow; both runs must trap at
        // the same instruction with the same partial state.
        let mut builder = ProgramBuilder::new();
        builder.addo(Reg::R26, Reg::R25, Reg::R1);
        builder.shaddo(ShAmount::Three, Reg::R1, Reg::R26, Reg::R2);
        builder.subo(Reg::R2, Reg::R25, Reg::R3);
        let p = builder.build().unwrap();
        assert_equivalent(&p, &[(Reg::R26, a), (Reg::R25, b)], &ExecConfig::default());
    }

    #[test]
    fn cycle_limits_match(a in any::<u32>(), budget in 1u64..40) {
        // An infinite loop cut off by the watchdog must stop at the same
        // cycle with the same counters in both instantiations.
        let mut builder = ProgramBuilder::new();
        let top = builder.here("spin");
        builder.addi(1, Reg::R1, Reg::R1);
        builder.b(top);
        let p = builder.build().unwrap();
        let config = ExecConfig { max_cycles: budget, ..ExecConfig::default() };
        assert_equivalent(&p, &[(Reg::R1, a)], &config);
    }
}
