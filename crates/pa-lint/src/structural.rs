//! The dataflow lint rules `PL001`–`PL006`, plus the structural half of
//! `PL007`: a checked multiply that can overflow must be able to trap.
//!
//! All register sets are 32-bit masks (bit *n* = `rN`). The must-analyses
//! (`PL001` uninit-read, `PL004` carry domination) run a forward worklist to
//! a fixpoint with intersection as the meet, so a register or the carry bit
//! counts as initialized only when **every** path to the use defines it.
//! Programs containing `BLR` (data-dependent dispatch) are exempt from the
//! path-sensitive rules; the local rules still apply.

use pa_isa::{Op, Program, Reg};

use crate::cfg;
use crate::{Claim, Finding, FindingCode, LintLevel, LintSpec};

/// Runs every structural rule, appending findings in rule order.
pub(crate) fn check(program: &Program, spec: &LintSpec, findings: &mut Vec<Finding>) {
    let reachable = cfg::reachable(program);
    let has_blr = cfg::contains_blr(program);

    if !has_blr {
        uninit_reads(program, spec, &reachable, findings);
    }
    write_to_r0(program, &reachable, findings);
    if spec.claim != Claim::None {
        dead_insns(program, spec, &reachable, findings);
    }
    if !has_blr {
        undominated_carry(program, &reachable, findings);
    }
    nullify_shadows(program, spec.level, &reachable, findings);
    if spec.claim.trap_free() {
        traps_on_trap_free(program, &reachable, findings);
    }
    if let Claim::MulConst { n, checked: true } = spec.claim {
        missing_overflow_trap(program, n, &reachable, findings);
    }
}

fn mask(regs: &[Reg]) -> u32 {
    regs.iter().fold(1, |m, r| m | 1u32 << r.number())
}

/// `PL001`: forward must-initialized analysis over the CFG.
fn uninit_reads(
    program: &Program,
    spec: &LintSpec,
    reachable: &[bool],
    findings: &mut Vec<Finding>,
) {
    let len = program.len();
    // ⊤ (all initialized) everywhere except the entry; meet is intersection.
    let mut state = vec![u32::MAX; len + 1];
    state[0] = mask(&spec.inputs);
    let mut work: Vec<usize> = vec![0];
    while let Some(i) = work.pop() {
        if i >= len {
            continue;
        }
        let mut out = state[i];
        if let Some(t) = program.get(i).expect("in range").op.def() {
            out |= 1u32 << t.number();
        }
        for succ in cfg::successors(program, i) {
            let merged = state[succ] & out;
            if merged != state[succ] {
                state[succ] = merged;
                work.push(succ);
            }
        }
    }
    for (i, insn) in program.iter().enumerate() {
        if !reachable[i] {
            continue;
        }
        for r in insn.op.uses() {
            if state[i] & (1u32 << r.number()) == 0 {
                findings.push(Finding::at(
                    FindingCode::UninitRead,
                    i,
                    format!("{r} is read by `{insn}` but not written on every path from entry"),
                ));
            }
        }
    }
}

/// `PL002`: a non-nullifying write to the hardwired-zero register.
fn write_to_r0(program: &Program, reachable: &[bool], findings: &mut Vec<Finding>) {
    for (i, insn) in program.iter().enumerate() {
        if reachable[i] && insn.op.def() == Some(Reg::R0) && !insn.op.can_nullify() {
            findings.push(Finding::at(
                FindingCode::WriteToR0,
                i,
                format!("`{insn}` writes r0; the result is silently discarded"),
            ));
        }
    }
}

/// `PL003`: backward liveness; an instruction whose register result and
/// carry output are both dead (and which has no other effect) does nothing.
fn dead_insns(program: &Program, spec: &LintSpec, reachable: &[bool], findings: &mut Vec<Finding>) {
    let len = program.len();
    // live[i] = (registers, carry) live *into* instruction i; live[len] is
    // the exit, rooted at the spec's declared outputs.
    let mut live: Vec<(u32, bool)> = vec![(0, false); len + 1];
    live[len] = (mask(&spec.outputs), false);
    // Fixpoint: propagate backwards until stable (bounded: sets only grow).
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..len).rev() {
            let op = &program.get(i).expect("in range").op;
            let (mut regs_out, mut carry_out) = (0u32, false);
            for succ in cfg::successors(program, i) {
                regs_out |= live[succ].0;
                carry_out |= live[succ].1;
            }
            let mut regs_in = regs_out;
            if let Some(t) = op.def() {
                regs_in &= !(1u32 << t.number());
            }
            regs_in |= mask(&op.uses()) & !1;
            let carry_in = if op.reads_carry() {
                true
            } else if op.sets_carry() {
                false
            } else {
                carry_out
            };
            if (regs_in, carry_in) != live[i] {
                live[i] = (regs_in, carry_in);
                changed = true;
            }
        }
    }
    for (i, insn) in program.iter().enumerate() {
        let op = &insn.op;
        let Some(t) = op.def() else { continue };
        if !reachable[i] || t.is_zero() || op.can_trap() || op.can_nullify() || op.is_branch() {
            continue;
        }
        let (mut regs_out, mut carry_out) = (0u32, false);
        for succ in cfg::successors(program, i) {
            regs_out |= live[succ].0;
            carry_out |= live[succ].1;
        }
        let result_dead = regs_out & (1u32 << t.number()) == 0;
        let carry_dead = !op.sets_carry() || !carry_out;
        if result_dead && carry_dead {
            findings.push(Finding::at(
                FindingCode::DeadInsn,
                i,
                format!("`{insn}` computes a value no output or later use can observe"),
            ));
        }
    }
}

/// `PL004`: forward must-analysis of the carry/borrow bit; every reachable
/// `ADDC`/`SUBB`/`DS` needs a flag-setting producer on all paths.
fn undominated_carry(program: &Program, reachable: &[bool], findings: &mut Vec<Finding>) {
    let len = program.len();
    let mut defined = vec![true; len + 1]; // ⊤ for the meet
    defined[0] = false;
    let mut work: Vec<usize> = vec![0];
    while let Some(i) = work.pop() {
        if i >= len {
            continue;
        }
        let out = defined[i] || program.get(i).expect("in range").op.sets_carry();
        for succ in cfg::successors(program, i) {
            if defined[succ] && !out {
                defined[succ] = false;
                work.push(succ);
            }
        }
    }
    for (i, insn) in program.iter().enumerate() {
        if reachable[i] && insn.op.reads_carry() && !defined[i] {
            findings.push(Finding::at(
                FindingCode::UndominatedCarry,
                i,
                format!(
                    "`{insn}` consumes the carry bit with no flag-setting producer on every path"
                ),
            ));
        }
    }
}

/// `PL005`: a nullification shadow must hold a plain instruction. At
/// [`LintLevel::Default`] an *unconditional* branch is allowed (the millicode
/// `COMICLR; B` dispatch idiom); [`LintLevel::Strict`] applies the rule
/// literally and flags any branch.
fn nullify_shadows(
    program: &Program,
    level: LintLevel,
    reachable: &[bool],
    findings: &mut Vec<Finding>,
) {
    for (i, insn) in program.iter().enumerate() {
        if !reachable[i] || !insn.op.can_nullify() {
            continue;
        }
        let Some(shadow) = program.get(i + 1) else {
            findings.push(Finding::at(
                FindingCode::NullifyShadow,
                i,
                format!("`{insn}` has no instruction to nullify; the skip target is outside the routine"),
            ));
            continue;
        };
        if shadow.op.can_nullify() {
            findings.push(Finding::at(
                FindingCode::NullifyShadow,
                i,
                format!("the shadow of `{insn}` is another nullifier (`{shadow}`)"),
            ));
        } else if shadow.op.is_branch() {
            let allowed = level != LintLevel::Strict && matches!(shadow.op, Op::B { .. });
            if !allowed {
                findings.push(Finding::at(
                    FindingCode::NullifyShadow,
                    i,
                    format!("the shadow of `{insn}` is a branch (`{shadow}`)"),
                ));
            }
        }
    }
}

/// `PL007`: a checked multiply by `n ∉ {0, 1}` with no reachable trapping
/// instruction. For every such `n` some `i32` input overflows (`i32::MIN`
/// for `n = -1`, `i32::MAX` otherwise), so a routine that cannot trap
/// returns a wrapped product where the claim demands a trap — which the
/// abstract interpreter, proving `dest ≡ n · x (mod 2^32)`, cannot see.
fn missing_overflow_trap(
    program: &Program,
    n: i64,
    reachable: &[bool],
    findings: &mut Vec<Finding>,
) {
    let can_trap = program
        .iter()
        .zip(reachable)
        .any(|(insn, &live)| live && insn.op.can_trap());
    if !matches!(n, 0 | 1) && !can_trap {
        findings.push(Finding::global(
            FindingCode::Unverified,
            format!("checked `x * {n}` can overflow but no reachable instruction can trap"),
        ));
    }
}

/// `PL006`: a statically reachable trapping instruction on a routine whose
/// claim promises trap-free execution.
fn traps_on_trap_free(program: &Program, reachable: &[bool], findings: &mut Vec<Finding>) {
    for (i, insn) in program.iter().enumerate() {
        if reachable[i] && insn.op.can_trap() {
            findings.push(Finding::at(
                FindingCode::TrapOnTrapFree,
                i,
                format!("`{insn}` can trap but the claim promises trap-free execution"),
            ));
        }
    }
}
