//! Deterministic fault injection for chaos drills.
//!
//! The paper's millicode lives or dies on its trap and edge behaviour, and
//! ordinary differential testing only exercises *correct* executions. This
//! module injects faults on purpose — reproducibly — so the rest of the
//! stack can prove it degrades gracefully:
//!
//! * a [`FaultPlan`] describes exactly one fault (which register bit, which
//!   decode slot, which cycle) and is armed through
//!   [`ExecConfig::fault_plan`](crate::ExecConfig::fault_plan);
//! * execution-level faults (register flips, decode-slot corruption, forced
//!   traps) are applied inside the one run loop, in its instrumented
//!   instantiation, so an armed run's cycle accounting, stats, trace and
//!   profile are the interpreter's by construction;
//! * every injection emits a [`telemetry::Event::FaultInjected`] so drills
//!   are observable;
//! * cache- and engine-level faults ([`FaultPlan::ShardPoison`],
//!   [`FaultPlan::WorkerKill`]) are carried in the plan but acted on by the
//!   `hppa-muldiv` core, not the simulator.
//!
//! ## The detection guarantee
//!
//! An armed plan must never produce a *silently wrong* value. Forced traps
//! are typed by construction. Register flips and decode corruption could
//! silently complete with a wrong result, so the armed path runs in **dual
//! modular redundancy**: after a faulted run completes, the pristine program
//! is re-executed from the same entry state by the interpreter, and any
//! difference in final architectural state is converted into a `BREAK`
//! trap with code [`DIVERGENCE_BREAK`]. Callers therefore see either a
//! bit-identical correct result or a typed termination — never silent
//! corruption. The redundant run only happens when a fault was actually
//! applied; the unarmed path is a single `Option` check per run.
//!
//! Determinism: a plan contains no entropy of its own — decode-slot
//! mutations are derived from the plan's `seed` with a splitmix64 step, so
//! the same plan injects the same fault every run, on every thread.

use core::fmt;

use pa_isa::{BitSense, Im11, Im14, Im21, Im5, Op, Program, Reg, ShAmount, ShiftPos};

use crate::exec::{run, run_probed, ExecConfig, RunResult, Termination, Trap, TrapKind};
use crate::stats::RegionTable;
use crate::Machine;

/// `BREAK` code used by forced-trap drills when the caller does not pick
/// one. Distinct from the millicode's divide-by-zero code (0x2d).
pub const CHAOS_BREAK: u16 = 0x7A;

/// `BREAK` code synthesised when the redundant pristine run disagrees with
/// a fault-injected run that claimed to complete — the "machine check" that
/// turns silent corruption into a typed termination.
pub const DIVERGENCE_BREAK: u16 = 0x7D;

/// One planned fault. Armed via
/// [`ExecConfig::with_fault_plan`](crate::ExecConfig::with_fault_plan) (or
/// the `hppa-muldiv` runtime builder); exactly one fault fires per run.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultPlan {
    /// Flip `bit` (0–31) of `reg` once the run has consumed `cycle` cycles.
    /// Flips aimed at `r0` are discarded by the hardwired zero, like any
    /// other write.
    RegisterFlip {
        /// Cycle count at which the flip is applied (before the next slot
        /// executes). A cycle beyond the run's length never fires.
        cycle: u64,
        /// The register to corrupt.
        reg: Reg,
        /// Bit position, masked to 0–31.
        bit: u8,
    },
    /// Corrupt one instruction of a copy of the program before the run
    /// starts. The concrete mutation (register-field bit, immediate bit,
    /// branch-target bit, dropped op) is chosen deterministically from
    /// `seed`. A slot index past the end of the program injects nothing.
    DecodeCorrupt {
        /// The decode-buffer slot to corrupt.
        slot: usize,
        /// Seed selecting the mutation.
        seed: u64,
    },
    /// Force a `BREAK` trap with `code` once the run has consumed `step`
    /// cycles (a "trap storm" sweeps `step` across a routine's length).
    ForceTrap {
        /// Cycle count at which the trap preempts execution.
        step: u64,
        /// Diagnostic code carried by the synthesised `BREAK`.
        code: u16,
    },
    /// Poison the mutex of the compile cache on its next lookup. Ignored by
    /// the simulator; the `hppa-muldiv` cache acts on it.
    ShardPoison {
        /// Target shard index. The cache is a single lock, so every index
        /// clamps to 0.
        shard: usize,
    },
    /// Panic logical worker `worker` of the parallel engine mid-batch: the
    /// worker that runs chunk `worker`, on whichever thread runs it.
    /// Ignored by the simulator; the `hppa-muldiv` engine acts on it.
    WorkerKill {
        /// Target worker index; an index with no chunk in the batch never
        /// fires (the batch completes normally).
        worker: usize,
    },
}

impl FaultPlan {
    /// Whether the plan perturbs simulator execution (as opposed to the
    /// cache or the engine). Only these plans are acted on by a run.
    #[must_use]
    pub fn affects_execution(&self) -> bool {
        matches!(
            self,
            FaultPlan::RegisterFlip { .. }
                | FaultPlan::DecodeCorrupt { .. }
                | FaultPlan::ForceTrap { .. }
        )
    }

    /// Whether the plan kills the engine worker with this index.
    #[must_use]
    pub fn kills_worker(&self, worker: usize) -> bool {
        matches!(self, FaultPlan::WorkerKill { worker: w } if *w == worker)
    }

    /// Short drill-catalog name for the fault kind.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            FaultPlan::RegisterFlip { .. } => "register-flip",
            FaultPlan::DecodeCorrupt { .. } => "decode-corrupt",
            FaultPlan::ForceTrap { .. } => "forced-trap",
            FaultPlan::ShardPoison { .. } => "shard-poison",
            FaultPlan::WorkerKill { .. } => "worker-kill",
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlan::RegisterFlip { cycle, reg, bit } => {
                write!(f, "flip {reg} bit {bit} at cycle {cycle}")
            }
            FaultPlan::DecodeCorrupt { slot, seed } => {
                write!(f, "corrupt decode slot {slot} (seed {seed:#x})")
            }
            FaultPlan::ForceTrap { step, code } => {
                write!(f, "force BREAK {code:#x} at step {step}")
            }
            FaultPlan::ShardPoison { shard } => write!(f, "poison cache shard {shard}"),
            FaultPlan::WorkerKill { worker } => write!(f, "kill engine worker {worker}"),
        }
    }
}

/// One splitmix64 step — the same generator the oracle fuzzer uses, inlined
/// so pa-sim stays dependency-free.
#[must_use]
pub(crate) fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `program` with an execution-affecting plan armed. Callers reach
/// this through [`run`] and [`PreparedProgram::run`](crate::PreparedProgram::run);
/// plans that do not affect execution never arrive here.
///
/// Every armed run goes through the instrumented run loop, so its cycle
/// accounting, stats, trace and profile are the plain run's. A run whose
/// injection landed and that still completed is cross-checked against the
/// pristine program. `regions` is the caller's cached stats region table,
/// if any. Kept out of line so the bare loop's caller stays small.
#[inline(never)]
pub(crate) fn run_with_plan(
    program: &Program,
    regions: Option<&RegionTable>,
    machine: &mut Machine,
    config: &ExecConfig,
    plan: &FaultPlan,
) -> RunResult {
    let entry = machine.clone();
    let (mut result, injected) = if let FaultPlan::DecodeCorrupt { slot, seed } = *plan {
        let mut code = program.insns().to_vec();
        let Some(insn) = code.get_mut(slot) else {
            // Slot out of range: nothing to inject, run untouched.
            return run_probed(program, regions, program.insns(), machine, config, None);
        };
        let (op, what) = corrupt_op(insn.op, mix(seed), program.len());
        insn.op = op;
        telemetry::emit(|| telemetry::Event::FaultInjected {
            kind: "decode-corrupt",
            target: format!("slot {slot}: {what}"),
            at: slot as u64,
        });
        (
            run_probed(program, regions, &code, machine, config, None),
            true,
        )
    } else {
        let mut armed = Intervention {
            plan,
            applied: false,
        };
        let result = run_probed(
            program,
            regions,
            program.insns(),
            machine,
            config,
            Some(&mut armed),
        );
        (result, armed.applied)
    };
    if injected && result.termination.is_completed() {
        check_against_pristine(
            program.len(),
            &entry,
            machine,
            config,
            &mut result,
            |m, cfg| run(program, m, cfg),
        );
    }
    result
}

/// A register flip or forced trap waiting for its cycle. The instrumented
/// run loop offers it the machine before every fetch, and once more when
/// control reaches the exit; it fires once, the first time the run has
/// consumed at least its cycle count.
pub(crate) struct Intervention<'p> {
    plan: &'p FaultPlan,
    applied: bool,
}

impl Intervention<'_> {
    /// Applies the plan if its cycle has come; a forced trap ends the run
    /// at `pc`, before that slot is fetched.
    pub(crate) fn before_fetch(
        &mut self,
        m: &mut Machine,
        pc: usize,
        cycles: u64,
    ) -> Option<Termination> {
        if self.applied {
            return None;
        }
        match *self.plan {
            FaultPlan::ForceTrap { step, code } if cycles >= step => {
                self.applied = true;
                telemetry::emit(|| telemetry::Event::FaultInjected {
                    kind: "forced-trap",
                    target: format!("BREAK {code:#x} at pc {pc}"),
                    at: cycles,
                });
                Some(Termination::Trapped(Trap {
                    kind: TrapKind::Break(code),
                    at: pc,
                }))
            }
            FaultPlan::RegisterFlip { cycle, reg, bit } if cycles >= cycle => {
                self.applied = true;
                let mask = 1u32 << (u32::from(bit) & 31);
                m.set_reg(reg, m.reg(reg) ^ mask);
                telemetry::emit(|| telemetry::Event::FaultInjected {
                    kind: "register-flip",
                    target: format!("{reg} bit {}", u32::from(bit) & 31),
                    at: cycles,
                });
                None
            }
            _ => None,
        }
    }
}

/// Deterministically mutates one instruction — the model of a bit upset in
/// the decode path used by [`FaultPlan::DecodeCorrupt`]. The mutation menu
/// mirrors what a real single-bit flip could hit: a register field, an
/// immediate or shift-amount bit (kept inside the field's encoded width),
/// a branch-target bit, a trap flag, or the opcode itself (dropping the
/// slot to a NOP). `r` selects the mutation; `len` bounds rewritten branch
/// targets so the corrupted code stays indexable.
fn corrupt_op(op: Op, r: u64, len: usize) -> (Op, &'static str) {
    let flip = |reg: Reg| Reg::new(reg.number() ^ 1).expect("xor 1 stays below 32");
    // Flips bit `r >> 8` (mod `bits`) of a `bits`-wide two's-complement
    // field and sign-extends the result back from that width.
    let field_bit = |value: i32, bits: u32| {
        let flipped = value ^ (1 << ((r >> 8) % u64::from(bits)));
        (flipped << (32 - bits)) >> (32 - bits)
    };
    let im5 =
        |i: Im5| Im5::new(field_bit(i.value(), Im5::BITS)).expect("sign-extended from 5 bits");
    let im11 =
        |i: Im11| Im11::new(field_bit(i.value(), Im11::BITS)).expect("sign-extended from 11 bits");
    let sabit = 1u32 << ((r >> 8) % 5); // shift and position fields are 5 bits wide
    let shift = |sa: ShiftPos| ShiftPos::new(sa.bits() ^ sabit).expect("5-bit field");
    let retarget = |t: usize| (t ^ 1) % len.max(1);
    if r.is_multiple_of(4) {
        // The upset made the slot undecodable and the fetch path reads it
        // as a dropped instruction.
        return (Op::Nop, "slot dropped to NOP");
    }
    let alt = (r >> 2) & 1 == 0;
    match op {
        Op::Add { a, b, t, trap } => {
            if alt {
                (
                    Op::Add {
                        a: flip(a),
                        b,
                        t,
                        trap,
                    },
                    "add: source-register bit",
                )
            } else {
                (
                    Op::Add {
                        a,
                        b,
                        t,
                        trap: !trap,
                    },
                    "add: trap flag",
                )
            }
        }
        Op::Addc { a, b, t } => {
            if alt {
                (Op::Addc { a: flip(a), b, t }, "addc: source-register bit")
            } else {
                (Op::Addc { a, b, t: flip(t) }, "addc: target-register bit")
            }
        }
        Op::Sub { a, b, t, trap } => {
            if alt {
                (
                    Op::Sub {
                        a,
                        b: flip(b),
                        t,
                        trap,
                    },
                    "sub: source-register bit",
                )
            } else {
                (
                    Op::Sub {
                        a,
                        b,
                        t,
                        trap: !trap,
                    },
                    "sub: trap flag",
                )
            }
        }
        Op::Subb { a, b, t } => {
            if alt {
                (Op::Subb { a: flip(a), b, t }, "subb: source-register bit")
            } else {
                (Op::Subb { a, b, t: flip(t) }, "subb: target-register bit")
            }
        }
        Op::ShAdd { sh, a, b, t, trap } => {
            if alt {
                // The two-bit field holds 1..=3; a flip that would read 0
                // lands on the field's other bit instead.
                let bits = match sh.bits() ^ 1 {
                    0 => sh.bits() ^ 2,
                    other => other,
                };
                (
                    Op::ShAdd {
                        sh: ShAmount::new(bits).expect("flipped amount stays in 1..=3"),
                        a,
                        b,
                        t,
                        trap,
                    },
                    "shadd: shift-amount bit",
                )
            } else {
                (
                    Op::ShAdd {
                        sh,
                        a,
                        b,
                        t: flip(t),
                        trap,
                    },
                    "shadd: target-register bit",
                )
            }
        }
        Op::Ds { a, b, t } => {
            if alt {
                (Op::Ds { a: flip(a), b, t }, "ds: source-register bit")
            } else {
                (Op::Ds { a, b, t: flip(t) }, "ds: target-register bit")
            }
        }
        Op::Or { a, b, t } => (Op::Or { a: flip(a), b, t }, "or: source-register bit"),
        Op::And { a, b, t } => (Op::And { a, b: flip(b), t }, "and: source-register bit"),
        Op::Xor { a, b, t } => (Op::Xor { a: flip(a), b, t }, "xor: source-register bit"),
        Op::AndCm { a, b, t } => (Op::AndCm { a, b: flip(b), t }, "andcm: source-register bit"),
        Op::Comclr { cond, a, b, t } => {
            if alt {
                (
                    Op::Comclr {
                        cond,
                        a: flip(a),
                        b,
                        t,
                    },
                    "comclr: source-register bit",
                )
            } else {
                (
                    Op::Comclr {
                        cond,
                        a,
                        b: flip(b),
                        t,
                    },
                    "comclr: source-register bit",
                )
            }
        }
        Op::Comiclr { cond, i, b, t } => {
            if alt {
                (
                    Op::Comiclr {
                        cond,
                        i: im11(i),
                        b,
                        t,
                    },
                    "comiclr: immediate bit",
                )
            } else {
                (
                    Op::Comiclr {
                        cond,
                        i,
                        b: flip(b),
                        t,
                    },
                    "comiclr: source-register bit",
                )
            }
        }
        Op::Addi { i, b, t, trap } => {
            if alt {
                (
                    Op::Addi {
                        i: im11(i),
                        b,
                        t,
                        trap,
                    },
                    "addi: immediate bit",
                )
            } else {
                (
                    Op::Addi {
                        i,
                        b,
                        t,
                        trap: !trap,
                    },
                    "addi: trap flag",
                )
            }
        }
        Op::Subi { i, b, t } => {
            if alt {
                (Op::Subi { i: im11(i), b, t }, "subi: immediate bit")
            } else {
                (Op::Subi { i, b, t: flip(t) }, "subi: target-register bit")
            }
        }
        Op::Ldo { b, d, t } => {
            if alt {
                let d = Im14::new(field_bit(d.value(), Im14::BITS))
                    .expect("sign-extended from 14 bits");
                (Op::Ldo { b, d, t }, "ldo: displacement bit")
            } else {
                (Op::Ldo { b: flip(b), d, t }, "ldo: base-register bit")
            }
        }
        Op::Ldil { i, t } => {
            if alt {
                let i = Im21::new(i.value() ^ (1 << ((r >> 8) % u64::from(Im21::BITS))))
                    .expect("flip stays inside 21 bits");
                (Op::Ldil { i, t }, "ldil: constant bit")
            } else {
                (Op::Ldil { i, t: flip(t) }, "ldil: target-register bit")
            }
        }
        Op::Shl { s, sa, t } => (
            Op::Shl {
                s,
                sa: shift(sa),
                t,
            },
            "shl: shift-amount bit",
        ),
        Op::ShrU { s, sa, t } => (
            Op::ShrU {
                s,
                sa: shift(sa),
                t,
            },
            "shr: shift-amount bit",
        ),
        Op::ShrS { s, sa, t } => (
            Op::ShrS {
                s,
                sa: shift(sa),
                t,
            },
            "sar: shift-amount bit",
        ),
        Op::Shd { hi, lo, sa, t } => {
            if alt {
                (
                    Op::Shd {
                        hi,
                        lo,
                        sa: shift(sa),
                        t,
                    },
                    "shd: shift-amount bit",
                )
            } else {
                (
                    Op::Shd {
                        hi: flip(hi),
                        lo,
                        sa,
                        t,
                    },
                    "shd: source-register bit",
                )
            }
        }
        Op::Extru { s, pos, len, t } => {
            // `pos` (0..=31) and the length, encoded as `32 - len`, are
            // both 5-bit fields, so a flipped field stays in range.
            if alt {
                (
                    Op::Extru {
                        s,
                        pos: pos ^ sabit as u8,
                        len,
                        t,
                    },
                    "extru: position bit",
                )
            } else {
                (
                    Op::Extru {
                        s,
                        pos,
                        len: 32 - ((32 - len) ^ sabit as u8),
                        t,
                    },
                    "extru: length bit",
                )
            }
        }
        Op::B { target } => (
            Op::B {
                target: retarget(target),
            },
            "b: target bit",
        ),
        Op::Comb { cond, a, b, target } => {
            if alt {
                (
                    Op::Comb {
                        cond,
                        a,
                        b,
                        target: retarget(target),
                    },
                    "comb: target bit",
                )
            } else {
                (
                    Op::Comb {
                        cond,
                        a: flip(a),
                        b,
                        target,
                    },
                    "comb: source-register bit",
                )
            }
        }
        Op::Combi { cond, i, b, target } => {
            if alt {
                (
                    Op::Combi {
                        cond,
                        i,
                        b,
                        target: retarget(target),
                    },
                    "combi: target bit",
                )
            } else {
                (
                    Op::Combi {
                        cond,
                        i: im5(i),
                        b,
                        target,
                    },
                    "combi: immediate bit",
                )
            }
        }
        Op::Addib { i, b, cond, target } => {
            if alt {
                (
                    Op::Addib {
                        i,
                        b,
                        cond,
                        target: retarget(target),
                    },
                    "addib: target bit",
                )
            } else {
                (
                    Op::Addib {
                        i: im5(i),
                        b,
                        cond,
                        target,
                    },
                    "addib: increment bit",
                )
            }
        }
        Op::Bb {
            s,
            bit,
            sense,
            target,
        } => {
            if alt {
                (
                    Op::Bb {
                        s,
                        bit,
                        sense,
                        target: retarget(target),
                    },
                    "bb: target bit",
                )
            } else {
                let sense = match sense {
                    BitSense::Set => BitSense::Clear,
                    BitSense::Clear => BitSense::Set,
                };
                (
                    Op::Bb {
                        s,
                        bit,
                        sense,
                        target,
                    },
                    "bb: sense bit",
                )
            }
        }
        Op::Blr { x, base } => {
            if alt {
                (Op::Blr { x: flip(x), base }, "blr: index-register bit")
            } else {
                (
                    Op::Blr {
                        x,
                        base: retarget(base),
                    },
                    "blr: base bit",
                )
            }
        }
        Op::Nop => (Op::Break { code: 0x6B }, "nop: raised to BREAK"),
        Op::Break { code } => (Op::Break { code: code ^ 1 }, "break: code bit"),
        _ => unreachable!("pa-sim handles every pa-isa op"),
    }
}

/// Re-runs the pristine program from `entry` and rewrites a completed
/// faulted termination into a [`DIVERGENCE_BREAK`] trap when the final
/// architectural state differs — the redundancy check behind the
/// correct-result-or-typed-error guarantee. The run's stats, finalised
/// before this check, count the rewritten trap here.
fn check_against_pristine(
    program_len: usize,
    entry: &Machine,
    faulted: &Machine,
    config: &ExecConfig,
    result: &mut RunResult,
    run_pristine: impl FnOnce(&mut Machine, &ExecConfig) -> RunResult,
) {
    let pristine_cfg = ExecConfig {
        profile: false,
        trace: false,
        stats: false,
        fault_plan: None,
        ..config.clone()
    };
    let mut pristine = entry.clone();
    let reference = run_pristine(&mut pristine, &pristine_cfg);
    if !(reference.termination.is_completed() && pristine == *faulted) {
        // Report the divergence at the exit comparison, one past the last
        // instruction — no real slot trapped.
        result.termination = Termination::Trapped(Trap {
            kind: TrapKind::Break(DIVERGENCE_BREAK),
            at: program_len,
        });
        if let Some(stats) = &mut result.stats {
            stats.traps += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_fn;
    use crate::PreparedProgram;
    use pa_isa::ProgramBuilder;

    /// r28 = 10 * r26, then r29 = r28 + r26 (a couple of dependent ops so a
    /// flip has somewhere to land).
    fn sample() -> pa_isa::Program {
        let mut b = ProgramBuilder::new();
        b.sh2add(Reg::R26, Reg::R26, Reg::R28);
        b.add(Reg::R28, Reg::R28, Reg::R28);
        b.add(Reg::R28, Reg::R26, Reg::R29);
        b.build().unwrap()
    }

    fn run_with(plan: FaultPlan, x: u32) -> (Machine, RunResult) {
        let p = sample();
        let prepared = PreparedProgram::new(&p, ExecConfig::default().with_fault_plan(plan));
        let mut m = Machine::with_regs(&[(Reg::R26, x)]);
        let r = prepared.run(&mut m);
        (m, r)
    }

    #[test]
    fn unarmed_plan_matches_interpreter() {
        let p = sample();
        let (m_ref, r_ref) = run_fn(&p, &[(Reg::R26, 7)], &ExecConfig::default());
        let prepared = PreparedProgram::new(&p, ExecConfig::default());
        let mut m = Machine::with_regs(&[(Reg::R26, 7)]);
        let r = prepared.run(&mut m);
        assert_eq!(m, m_ref);
        assert_eq!(r.cycles, r_ref.cycles);
        assert_eq!(r.termination, r_ref.termination);
    }

    #[test]
    fn forced_trap_preempts_with_typed_break() {
        let plan = FaultPlan::ForceTrap {
            step: 1,
            code: CHAOS_BREAK,
        };
        let (_, r) = run_with(plan, 7);
        assert_eq!(
            r.termination.trap().map(|t| t.kind),
            Some(TrapKind::Break(CHAOS_BREAK))
        );
        assert_eq!(r.cycles, 1, "trap fires after exactly `step` cycles");
    }

    #[test]
    fn forced_trap_past_the_end_never_fires() {
        let plan = FaultPlan::ForceTrap {
            step: 1000,
            code: CHAOS_BREAK,
        };
        let (m, r) = run_with(plan, 7);
        assert!(r.termination.is_completed());
        assert_eq!(m.reg(Reg::R28), 70);
        assert_eq!(m.reg(Reg::R29), 77);
    }

    #[test]
    fn register_flip_on_live_value_is_detected_not_silent() {
        // Flip a bit of the result register between instructions: the run
        // completes, but the redundant pristine run catches the divergence.
        let plan = FaultPlan::RegisterFlip {
            cycle: 1,
            reg: Reg::R28,
            bit: 0,
        };
        let (_, r) = run_with(plan, 7);
        assert_eq!(
            r.termination.trap().map(|t| t.kind),
            Some(TrapKind::Break(DIVERGENCE_BREAK)),
            "silent corruption must be converted into a typed trap"
        );
    }

    #[test]
    fn register_flip_on_dead_register_yields_correct_result() {
        // r13 is never read by the sample program: the flip is applied but
        // masked, and the run is certified correct by the redundant check...
        let plan = FaultPlan::RegisterFlip {
            cycle: 1,
            reg: Reg::R13,
            bit: 5,
        };
        let (m, r) = run_with(plan, 7);
        // ...which compares *full* machine state, so the lingering flipped
        // bit itself reads as a divergence. That is the conservative edge
        // of the guarantee: never silently wrong, possibly over-cautious.
        if r.termination.is_completed() {
            assert_eq!(m.reg(Reg::R28), 70);
        } else {
            assert_eq!(
                r.termination.trap().map(|t| t.kind),
                Some(TrapKind::Break(DIVERGENCE_BREAK))
            );
        }
    }

    #[test]
    fn register_flip_on_r0_is_discarded_and_correct() {
        let plan = FaultPlan::RegisterFlip {
            cycle: 1,
            reg: Reg::R0,
            bit: 3,
        };
        let (m, r) = run_with(plan, 7);
        assert!(r.termination.is_completed(), "{:?}", r.termination);
        assert_eq!(m.reg(Reg::R28), 70);
        assert_eq!(m.reg(Reg::R29), 77);
    }

    #[test]
    fn decode_corruption_matches_or_faults_never_lies() {
        // Sweep slots and seeds: every outcome must either reproduce the
        // pristine result exactly or terminate with a typed trap/fault.
        let p = sample();
        let (m_ref, _) = run_fn(&p, &[(Reg::R26, 7)], &ExecConfig::default());
        for slot in 0..p.len() {
            for seed in 0..32u64 {
                let plan = FaultPlan::DecodeCorrupt { slot, seed };
                let (m, r) = run_with(plan, 7);
                match r.termination {
                    Termination::Completed => {
                        assert_eq!(m, m_ref, "slot {slot} seed {seed}: silent divergence");
                    }
                    Termination::Trapped(_) | Termination::Faulted(_) | Termination::CycleLimit => {
                    }
                }
            }
        }
    }

    #[test]
    fn decode_corruption_out_of_range_is_inert() {
        let plan = FaultPlan::DecodeCorrupt { slot: 999, seed: 1 };
        let (m, r) = run_with(plan, 7);
        assert!(r.termination.is_completed());
        assert_eq!(m.reg(Reg::R28), 70);
    }

    #[test]
    fn injections_emit_fault_events() {
        let ((), events) = telemetry::collect(|| {
            let _ = run_with(
                FaultPlan::ForceTrap {
                    step: 1,
                    code: CHAOS_BREAK,
                },
                7,
            );
            let _ = run_with(
                FaultPlan::RegisterFlip {
                    cycle: 1,
                    reg: Reg::R28,
                    bit: 0,
                },
                7,
            );
            let _ = run_with(FaultPlan::DecodeCorrupt { slot: 0, seed: 3 }, 7);
        });
        let kinds: Vec<String> = events
            .iter()
            .filter(|e| matches!(e, telemetry::Event::FaultInjected { .. }))
            .map(telemetry::Event::strategy_key)
            .collect();
        assert_eq!(
            kinds,
            vec![
                "fault/forced-trap",
                "fault/register-flip",
                "fault/decode-corrupt"
            ]
        );
    }

    #[test]
    fn unapplied_faults_emit_nothing() {
        let ((), events) = telemetry::collect(|| {
            let _ = run_with(
                FaultPlan::ForceTrap {
                    step: 10_000,
                    code: CHAOS_BREAK,
                },
                7,
            );
            let _ = run_with(FaultPlan::DecodeCorrupt { slot: 999, seed: 0 }, 7);
        });
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, telemetry::Event::FaultInjected { .. })),
            "faults that never fire must not claim to have been injected"
        );
    }

    #[test]
    fn plans_are_deterministic_across_runs() {
        for seed in 0..8u64 {
            let plan = FaultPlan::DecodeCorrupt { slot: 1, seed };
            let (m1, r1) = run_with(plan.clone(), 7);
            let (m2, r2) = run_with(plan, 7);
            assert_eq!(m1, m2);
            assert_eq!(r1.termination, r2.termination);
            assert_eq!(r1.cycles, r2.cycles);
        }
    }

    #[test]
    fn plan_helpers_classify_kinds() {
        let flip = FaultPlan::RegisterFlip {
            cycle: 0,
            reg: Reg::R1,
            bit: 0,
        };
        let kill = FaultPlan::WorkerKill { worker: 2 };
        let poison = FaultPlan::ShardPoison { shard: 3 };
        assert!(flip.affects_execution());
        assert!(!kill.affects_execution());
        assert!(!poison.affects_execution());
        assert!(kill.kills_worker(2));
        assert!(!kill.kills_worker(1));
        assert_eq!(flip.kind_name(), "register-flip");
        assert!(poison.to_string().contains("shard 3"));
    }

    #[test]
    fn non_execution_plans_run_untouched() {
        let (m, r) = run_with(FaultPlan::ShardPoison { shard: 0 }, 7);
        assert!(r.termination.is_completed());
        assert_eq!(m.reg(Reg::R28), 70);
        let (m, r) = run_with(FaultPlan::WorkerKill { worker: 0 }, 7);
        assert!(r.termination.is_completed());
        assert_eq!(m.reg(Reg::R28), 70);
    }

    /// `b next; next: ldi 1,r1` — a taken branch to the fall-through slot.
    fn branch_to_next() -> pa_isa::Program {
        let mut b = ProgramBuilder::new();
        let next = b.named_label("next");
        b.b(next);
        b.bind(next);
        b.ldi(1, Reg::R1);
        b.build().unwrap()
    }

    /// The shift-and-add multiply loop of `tests/fault_proptest.rs`.
    fn multiply_loop() -> pa_isa::Program {
        let mut b = ProgramBuilder::new();
        b.copy(Reg::R0, Reg::R28);
        b.ldi(16, Reg::R3);
        let top = b.here("loop");
        let skip = b.named_label("skip");
        b.bb_lsb(Reg::R25, pa_isa::BitSense::Clear, skip);
        b.add(Reg::R26, Reg::R28, Reg::R28);
        b.bind(skip);
        b.add(Reg::R26, Reg::R26, Reg::R26);
        b.shr(Reg::R25, 1, Reg::R25);
        b.addib(-1, Reg::R3, pa_isa::Cond::Ne, top);
        b.build().unwrap()
    }

    #[test]
    fn armed_plans_that_never_fire_match_the_plain_run() {
        let observed = ExecConfig::default()
            .with_stats()
            .with_trace()
            .with_profile();
        let plans = [
            FaultPlan::ForceTrap {
                step: 10_000,
                code: CHAOS_BREAK,
            },
            FaultPlan::RegisterFlip {
                cycle: 10_000,
                reg: Reg::R28,
                bit: 0,
            },
        ];
        let cases = [
            (branch_to_next(), 0, 0),
            (sample(), 7, 0),
            (multiply_loop(), 1234, 0xB00F),
            (multiply_loop(), u32::MAX, 0x8000_0001),
        ];
        for (p, a, b) in &cases {
            let inputs = [(Reg::R26, *a), (Reg::R25, *b)];
            for config in [ExecConfig::default(), observed.clone()] {
                let (m_plain, r_plain) = run_fn(p, &inputs, &config);
                for plan in &plans {
                    let armed =
                        PreparedProgram::new(p, config.clone().with_fault_plan(plan.clone()));
                    let mut m = Machine::with_regs(&inputs);
                    let r = armed.run(&mut m);
                    assert_eq!(m, m_plain, "{plan}");
                    assert_eq!(r, r_plain, "{plan}: counters, stats, trace and profile");
                }
            }
        }
        let (_, r) = run_fn(&branch_to_next(), &[], &ExecConfig::default());
        assert_eq!(r.taken_branches, 1);
    }

    #[test]
    fn forced_trap_at_the_run_length_traps_at_the_exit() {
        let p = sample();
        let plan = FaultPlan::ForceTrap {
            step: p.len() as u64,
            code: CHAOS_BREAK,
        };
        let (m, r) = run_with(plan, 7);
        assert_eq!(
            r.termination,
            Termination::Trapped(Trap {
                kind: TrapKind::Break(CHAOS_BREAK),
                at: p.len(),
            })
        );
        assert_eq!(r.cycles, p.len() as u64);
        assert_eq!(m.reg(Reg::R29), 77, "every slot ran before the trap");
    }

    #[test]
    fn register_flip_at_the_run_length_is_caught_after_the_last_slot() {
        let p = sample();
        let plan = FaultPlan::RegisterFlip {
            cycle: p.len() as u64,
            reg: Reg::R29,
            bit: 4,
        };
        let (m, r) = run_with(plan, 7);
        assert_eq!(
            m.reg(Reg::R29),
            77 ^ 16,
            "the flip landed after the last slot"
        );
        assert_eq!(
            r.termination,
            Termination::Trapped(Trap {
                kind: TrapKind::Break(DIVERGENCE_BREAK),
                at: p.len(),
            })
        );
        assert_eq!(r.cycles, p.len() as u64);
    }

    #[test]
    fn run_honours_an_armed_plan_like_a_prepared_run() {
        let mut plans = vec![
            FaultPlan::ForceTrap {
                step: 1,
                code: CHAOS_BREAK,
            },
            FaultPlan::RegisterFlip {
                cycle: 1,
                reg: Reg::R28,
                bit: 0,
            },
            FaultPlan::WorkerKill { worker: 0 },
        ];
        plans.extend(
            (0..3).flat_map(|slot| (0..8).map(move |seed| FaultPlan::DecodeCorrupt { slot, seed })),
        );
        let p = sample();
        for plan in plans {
            let config = ExecConfig::default().with_fault_plan(plan.clone());
            let (m_prepared, r_prepared) = run_with(plan.clone(), 7);
            let ((m_run, r_run), events) =
                telemetry::collect(|| run_fn(&p, &[(Reg::R26, 7)], &config));
            assert_eq!(m_run, m_prepared, "{plan}");
            assert_eq!(r_run, r_prepared, "{plan}");
            let injected = events
                .iter()
                .filter(|e| matches!(e, telemetry::Event::FaultInjected { .. }))
                .count();
            assert_eq!(injected, usize::from(plan.affects_execution()), "{plan}");
        }
    }

    #[test]
    fn corrupted_fields_stay_inside_their_encodings() {
        // Fields at the edges of their encodings. Every mutation must build
        // through the operand constructors, keep EXTRU's raw fields in
        // range, and run without an arithmetic panic.
        let mut b = ProgramBuilder::new();
        let out = b.named_label("out");
        b.sh1add(Reg::R1, Reg::R2, Reg::R3);
        b.sh3add(Reg::R1, Reg::R2, Reg::R3);
        b.extru(Reg::R1, 31, 32, Reg::R4);
        b.extru(Reg::R1, 0, 1, Reg::R4);
        b.addi(-1024, Reg::R1, Reg::R5);
        b.comiclr(pa_isa::Cond::Eq, 1023, Reg::R1, Reg::R0);
        b.ldo(-8192, Reg::R1, Reg::R6);
        b.ldil(Im21::MAX, Reg::R6);
        b.addib(-16, Reg::R7, pa_isa::Cond::Ne, out);
        b.bind(out);
        let p = b.build().unwrap();
        let config = ExecConfig {
            max_cycles: 100,
            ..ExecConfig::default()
        };
        for (slot, insn) in p.iter().enumerate() {
            for seed in 0..64u64 {
                let (op, what) = corrupt_op(insn.op, mix(seed), p.len());
                match (insn.op, op) {
                    (_, Op::Extru { pos, len, .. }) => {
                        assert!(pos <= 31 && (1..=32).contains(&len), "{what}: {op:?}");
                    }
                    (Op::ShAdd { sh: before, .. }, Op::ShAdd { sh: after, .. })
                        if what == "shadd: shift-amount bit" =>
                    {
                        assert_ne!(before, after);
                    }
                    _ => {}
                }
                let plan = FaultPlan::DecodeCorrupt { slot, seed };
                let armed = PreparedProgram::new(&p, config.clone().with_fault_plan(plan));
                let _ = armed.run(&mut Machine::with_regs(&[(Reg::R1, u32::MAX)]));
            }
        }
    }

    #[test]
    fn mix_is_a_bijective_scramble() {
        // Smoke: distinct seeds keep distinct outputs, and the constant
        // matches splitmix64's published first output for seed 0.
        assert_ne!(mix(0), mix(1));
        assert_eq!(mix(0), 0xE220_A839_7B1D_CDAF);
    }
}
