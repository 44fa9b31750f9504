//! # mulconst — multiply-by-constant code generation
//!
//! Compiles the shift-add chains of the [`addchain`] crate into executable
//! [`pa_isa`] programs, reproducing §5 of the ASPLOS'87 paper:
//!
//! * one single-cycle instruction per chain step (`ADD`, `SHxADD`, `SUB`,
//!   shift);
//! * by convention **the source register is left untouched** ("the operand is
//!   always left untouched in a multiplication by constant"), so chains that
//!   only reference the previous element and `a₀` need no scratch register;
//! * an **overflow-checking flavour** that requires a monotonic add/shift-and-add
//!   chain and emits the trapping `ADDO`/`SHxADDO` forms — the penalty Pascal
//!   pays and C does not;
//! * a small register allocator for the chains that do need temporaries
//!   (below 100, only 59, 87 and 94 have no minimal temp-free chain).
//!
//! ## Example
//!
//! ```
//! use mulconst::{compile_mul_const, CodegenConfig};
//! use pa_sim::{run_fn, ExecConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = CodegenConfig::default();
//! let p = compile_mul_const(10, &cfg)?; // the paper's 2-instruction ×10
//! assert_eq!(p.len(), 2);
//! let (m, stats) = run_fn(&p, &[(cfg.source, 7)], &ExecConfig::default());
//! assert_eq!(m.reg(cfg.dest), 70);
//! assert_eq!(stats.cycles, 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::fmt;

use addchain::{find_chain_with, Chain, Ref, RuleConfig, Step};
use pa_isa::{IsaError, Op, Program, ProgramBuilder, Reg, ShAmount};

/// Code generation options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodegenConfig {
    /// Register holding the multiplicand; never written (the §5 convention).
    pub source: Reg,
    /// Register receiving the product.
    pub dest: Reg,
    /// Scratch registers available for chains that need temporaries.
    pub temps: Vec<Reg>,
    /// Emit trapping instructions so the multiply detects overflow
    /// (requires a monotonic add/shift-and-add chain).
    pub check_overflow: bool,
}

impl Default for CodegenConfig {
    /// PA-RISC argument conventions: multiplicand in `r26` (`arg0`), result
    /// in `r28` (`ret0`), caller-saves as scratch. Five temporaries cover
    /// the deepest factor-method chains any 32-bit constant produces; most
    /// constants use none of them.
    fn default() -> CodegenConfig {
        CodegenConfig {
            source: Reg::R26,
            dest: Reg::R28,
            temps: vec![Reg::R1, Reg::R31, Reg::R29, Reg::R25, Reg::R24],
            check_overflow: false,
        }
    }
}

impl CodegenConfig {
    /// The same register assignment with overflow checking enabled.
    #[must_use]
    pub fn with_overflow_checking() -> CodegenConfig {
        CodegenConfig {
            check_overflow: true,
            ..CodegenConfig::default()
        }
    }
}

/// Errors from chain compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodegenError {
    /// Overflow checking was requested but the chain is not monotonic
    /// add/shift-and-add (no trapping form exists for `SUB`-free detection).
    NotOverflowSafe,
    /// The chain needs more live values than `dest` + `temps` can hold.
    OutOfTemps {
        /// How many registers would have been needed at the worst point.
        needed: usize,
    },
    /// `source`, `dest` and `temps` must all be distinct, non-`r0` registers.
    RegisterConflict,
    /// An instruction could not be constructed (e.g. shift out of range).
    Isa(IsaError),
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::NotOverflowSafe => {
                write!(
                    f,
                    "chain cannot carry overflow checks (not monotonic add/shift-and-add)"
                )
            }
            CodegenError::OutOfTemps { needed } => {
                write!(f, "chain needs {needed} registers but fewer were provided")
            }
            CodegenError::RegisterConflict => {
                write!(
                    f,
                    "source, dest and temp registers must be distinct and non-zero"
                )
            }
            CodegenError::Isa(e) => write!(f, "instruction construction failed: {e}"),
        }
    }
}

impl std::error::Error for CodegenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodegenError::Isa(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IsaError> for CodegenError {
    fn from(e: IsaError) -> CodegenError {
        CodegenError::Isa(e)
    }
}

/// Compiles multiplication by the compile-time constant `n`.
///
/// Chain search uses the rule-based generator (§5); with
/// [`CodegenConfig::check_overflow`] set it uses the restricted monotonic
/// rule set and trapping instructions, accepting the paper's bounded
/// overflow-detection penalty.
///
/// # Errors
///
/// See [`CodegenError`]; with default configs only register conflicts are
/// possible, and the defaults cannot conflict.
pub fn compile_mul_const(n: i64, config: &CodegenConfig) -> Result<Program, CodegenError> {
    if config.check_overflow && n == 0 {
        // x·0 cannot overflow, so the checked multiply is the unchecked one
        // (whose one-step `a₀ - a₀` chain has no trapping form).
        let unchecked = CodegenConfig {
            check_overflow: false,
            ..config.clone()
        };
        return compile_mul_const(0, &unchecked);
    }
    let rules = if config.check_overflow {
        RuleConfig::overflow_safe()
    } else {
        RuleConfig::default()
    };
    let (target, negate) = if config.check_overflow && n < 0 {
        // Negation needs SUB; compile |n| with traps, then negate with SUBO
        // (0 - x overflows only for x = i32::MIN, which |n|·x would have
        // already trapped on unless |n| == 1).
        (-n, true)
    } else {
        (n, false)
    };
    let compile = |chain: &Chain| -> Result<Program, CodegenError> {
        let mut b = ProgramBuilder::new();
        emit_chain(chain, config, &mut b, negate)?;
        b.build().map_err(CodegenError::from)
    };
    match compile(&find_chain_with(target, &rules)) {
        Err(CodegenError::OutOfTemps { .. }) => {
            // Retry with the register-lean rule set (chains keeping at most
            // three values live), trading a step or two for pressure.
            let lean = RuleConfig {
                allow_splits: false,
                ..rules
            };
            compile(&find_chain_with(target, &lean))
        }
        other => other,
    }
}

/// Compiles a specific chain (callers wanting strategy control).
///
/// # Errors
///
/// See [`CodegenError`].
pub fn compile_chain(chain: &Chain, config: &CodegenConfig) -> Result<Program, CodegenError> {
    let mut b = ProgramBuilder::new();
    emit_chain(chain, config, &mut b, false)?;
    b.build().map_err(CodegenError::from)
}

/// The allocator state: which register holds which chain element.
struct Alloc {
    /// `holds[i]` = chain element index (1-based step result) in pool reg `i`.
    holds: Vec<Option<u32>>,
    /// Pool: `dest` first, then temps.
    pool: Vec<Reg>,
    /// For each element (1-based), the last step index that reads it.
    last_use: Vec<usize>,
}

impl Alloc {
    fn reg_of(&self, r: Ref, source: Reg) -> Option<Reg> {
        match r {
            Ref::Zero => Some(Reg::R0),
            Ref::One => Some(source),
            Ref::Step(i) => self
                .holds
                .iter()
                .position(|&h| h == Some(i))
                .map(|slot| self.pool[slot]),
        }
    }

    /// Picks a register for the result of step `at` (element `at + 1`).
    fn place(&mut self, at: usize, is_last: bool) -> Result<Reg, CodegenError> {
        let element = (at + 1) as u32;
        // The final element must land in dest.
        if is_last {
            self.holds[0] = Some(element);
            return Ok(self.pool[0]);
        }
        // Prefer a slot whose current value is dead at/after this step.
        let dead = |h: Option<u32>| match h {
            None => true,
            Some(e) => self.last_use[e as usize] <= at,
        };
        // Dest first (keeps most chains single-register), then temps.
        if let Some(slot) = (0..self.pool.len()).find(|&s| dead(self.holds[s])) {
            self.holds[slot] = Some(element);
            return Ok(self.pool[slot]);
        }
        Err(CodegenError::OutOfTemps {
            needed: self.pool.len() + 1,
        })
    }
}

fn emit_chain(
    chain: &Chain,
    config: &CodegenConfig,
    b: &mut ProgramBuilder,
    negate_result: bool,
) -> Result<(), CodegenError> {
    validate_regs(config)?;
    if config.check_overflow && !chain.is_overflow_safe() {
        return Err(CodegenError::NotOverflowSafe);
    }

    let steps = chain.steps();
    if steps.is_empty() {
        // Multiplication by one: copy.
        if negate_result {
            // The checked ×(−1): SUBO traps on i32::MIN.
            b.subo(Reg::R0, config.source, config.dest);
        } else {
            b.copy(config.source, config.dest);
        }
        return Ok(());
    }

    // Liveness: last step index reading each element (1-based elements).
    let mut last_use = vec![0usize; steps.len() + 1];
    for (at, step) in steps.iter().enumerate() {
        let (j, k) = step.operands();
        for r in [Some(j), k].into_iter().flatten() {
            if let Ref::Step(e) = r {
                last_use[e as usize] = at;
            }
        }
    }

    let mut pool = vec![config.dest];
    pool.extend(config.temps.iter().copied());
    let mut alloc = Alloc {
        holds: vec![None; pool.len()],
        pool,
        last_use,
    };

    let trap = config.check_overflow;
    for (at, step) in steps.iter().enumerate() {
        let is_last = at + 1 == steps.len();
        let (j, k) = step.operands();
        let rj = alloc
            .reg_of(j, config.source)
            .expect("validated chain refs resolve");
        let rk = k.map(|k| alloc.reg_of(k, config.source).expect("validated"));
        let t = alloc.place(at, is_last)?;
        match *step {
            Step::Add { .. } => {
                b.raw(Op::Add {
                    a: rj,
                    b: rk.expect("add has k"),
                    t,
                    trap,
                });
            }
            Step::ShAdd { sh, .. } => {
                let sh = ShAmount::new(sh).map_err(CodegenError::from)?;
                b.raw(Op::ShAdd {
                    sh,
                    a: rj,
                    b: rk.expect("shadd has k"),
                    t,
                    trap,
                });
            }
            Step::Sub { .. } => {
                debug_assert!(!trap, "overflow-safe chains have no SUB");
                b.raw(Op::Sub {
                    a: rj,
                    b: rk.expect("sub has k"),
                    t,
                    trap: false,
                });
            }
            Step::Shl { amount, .. } => {
                debug_assert!(!trap, "overflow-safe chains have no SHL");
                b.shl(rj, amount, t);
            }
        }
    }
    if negate_result {
        if trap {
            b.subo(Reg::R0, config.dest, config.dest);
        } else {
            b.sub(Reg::R0, config.dest, config.dest);
        }
    }
    Ok(())
}

fn validate_regs(config: &CodegenConfig) -> Result<(), CodegenError> {
    let mut regs = vec![config.source, config.dest];
    regs.extend(config.temps.iter().copied());
    if regs.iter().any(|r| r.is_zero()) {
        return Err(CodegenError::RegisterConflict);
    }
    let mut sorted = regs.clone();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != regs.len() {
        return Err(CodegenError::RegisterConflict);
    }
    Ok(())
}

/// The static instruction count of a compiled multiply — also its cycle
/// count, since constant-multiply code is straight-line.
#[must_use]
pub fn static_cost(program: &Program) -> usize {
    program.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use addchain::find_chain;
    use pa_sim::{run_fn, ExecConfig, Machine, TrapKind};

    fn cfg() -> CodegenConfig {
        CodegenConfig::default()
    }

    fn mul_on_sim(p: &Program, x: u32) -> (Machine, pa_sim::RunResult) {
        run_fn(p, &[(Reg::R26, x)], &ExecConfig::default())
    }

    #[test]
    fn paper_times_ten() {
        let p = compile_mul_const(10, &cfg()).unwrap();
        assert_eq!(p.len(), 2);
        let (m, _) = mul_on_sim(&p, 123);
        assert_eq!(m.reg(Reg::R28), 1230);
    }

    #[test]
    fn times_one_is_copy() {
        let p = compile_mul_const(1, &cfg()).unwrap();
        assert_eq!(p.len(), 1);
        let (m, _) = mul_on_sim(&p, 99);
        assert_eq!(m.reg(Reg::R28), 99);
    }

    #[test]
    fn times_zero() {
        let p = compile_mul_const(0, &cfg()).unwrap();
        let (m, _) = mul_on_sim(&p, 99);
        assert_eq!(m.reg(Reg::R28), 0);
    }

    #[test]
    fn negative_constants() {
        for n in [-1i64, -3, -10, -59, -100] {
            let p = compile_mul_const(n, &cfg()).unwrap();
            let (m, _) = mul_on_sim(&p, 7);
            assert_eq!(m.reg_i32(Reg::R28), 7 * n as i32, "n = {n}");
        }
    }

    #[test]
    fn source_is_never_clobbered() {
        for n in 0..=512i64 {
            let p = compile_mul_const(n, &cfg()).unwrap();
            assert!(
                !p.clobbered_registers().contains(&Reg::R26),
                "n = {n} writes the source:\n{p}"
            );
        }
    }

    #[test]
    fn wrapping_semantics_match_rust() {
        // Exact-integer chains compute n·x modulo 2^32 for every x.
        let xs = [0u32, 1, 2, 0xFFFF_FFFF, 0x8000_0000, 12345, 0x7FFF_FFFF];
        for n in [0i64, 1, 3, 10, 59, 87, 94, 641, 5461, 65535, -7] {
            let p = compile_mul_const(n, &cfg()).unwrap();
            for &x in &xs {
                let (m, r) = mul_on_sim(&p, x);
                assert!(r.termination.is_completed());
                assert_eq!(m.reg(Reg::R28), x.wrapping_mul(n as u32), "{n} * {x}");
            }
        }
    }

    #[test]
    fn temp_needing_chains_still_compile() {
        // 59, 87, 94: every minimal chain needs a temporary.
        for n in [59i64, 87, 94] {
            let chain = find_chain(n);
            let p = compile_chain(&chain, &cfg()).unwrap();
            let (m, _) = mul_on_sim(&p, 3);
            assert_eq!(m.reg(Reg::R28), 3 * n as u32, "n = {n}");
        }
    }

    #[test]
    fn out_of_temps_is_detected() {
        // A chain deliberately keeping many values alive.
        use addchain::{Chain, Ref, Step};
        let chain = Chain::new(
            2 + 3 + 5 + 9,
            vec![
                Step::Add {
                    j: Ref::One,
                    k: Ref::One,
                }, //  2
                Step::ShAdd {
                    sh: 1,
                    j: Ref::One,
                    k: Ref::One,
                }, //  3
                Step::ShAdd {
                    sh: 2,
                    j: Ref::One,
                    k: Ref::One,
                }, //  5
                Step::ShAdd {
                    sh: 3,
                    j: Ref::One,
                    k: Ref::One,
                }, //  9
                Step::Add {
                    j: Ref::Step(1),
                    k: Ref::Step(2),
                }, //  5
                Step::Add {
                    j: Ref::Step(3),
                    k: Ref::Step(4),
                }, // 14
                Step::Add {
                    j: Ref::Step(5),
                    k: Ref::Step(6),
                }, // 19
            ],
        )
        .unwrap();
        let narrow = CodegenConfig {
            temps: vec![Reg::R1],
            ..cfg()
        };
        assert!(matches!(
            compile_chain(&chain, &narrow),
            Err(CodegenError::OutOfTemps { .. })
        ));
        // With enough temps it compiles and computes 19x.
        let wide = CodegenConfig {
            temps: vec![Reg::R1, Reg::R31, Reg::R29],
            ..cfg()
        };
        let p = compile_chain(&chain, &wide).unwrap();
        let (m, _) = mul_on_sim(&p, 10);
        assert_eq!(m.reg(Reg::R28), 190);
    }

    #[test]
    fn overflow_checking_traps_exactly_when_rust_does() {
        let cfg = CodegenConfig::with_overflow_checking();
        let xs = [0i32, 1, -1, 1000, -1000, i32::MAX, i32::MIN, i32::MAX / 3];
        for n in [2i64, 3, 10, 15, 31, 100, 59] {
            let p = compile_mul_const(n, &cfg).unwrap();
            for &x in &xs {
                let (m, r) = run_fn(&p, &[(Reg::R26, x as u32)], &ExecConfig::default());
                match x.checked_mul(n as i32) {
                    Some(exact) => {
                        assert!(r.termination.is_completed(), "{n} * {x} trapped spuriously");
                        assert_eq!(m.reg_i32(Reg::R28), exact, "{n} * {x}");
                    }
                    None => {
                        assert_eq!(
                            r.termination.trap().map(|t| t.kind),
                            Some(TrapKind::Overflow),
                            "{n} * {x} failed to trap"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn overflow_penalty_for_31_is_one_extra() {
        // §5 Overflow: 2 steps free, 3 steps checked.
        let free = compile_mul_const(31, &cfg()).unwrap();
        let checked = compile_mul_const(31, &CodegenConfig::with_overflow_checking()).unwrap();
        assert_eq!(free.len(), 2);
        assert_eq!(checked.len(), 3);
    }

    #[test]
    fn checked_negative_multiplies() {
        let cfg = CodegenConfig::with_overflow_checking();
        let p = compile_mul_const(-5, &cfg).unwrap();
        let (m, r) = run_fn(&p, &[(Reg::R26, 100)], &ExecConfig::default());
        assert!(r.termination.is_completed());
        assert_eq!(m.reg_i32(Reg::R28), -500);
    }

    #[test]
    fn register_conflicts_rejected() {
        let bad = CodegenConfig {
            source: Reg::R28,
            ..cfg()
        };
        assert_eq!(
            compile_mul_const(5, &bad).unwrap_err(),
            CodegenError::RegisterConflict
        );
        let zero = CodegenConfig {
            dest: Reg::R0,
            ..cfg()
        };
        assert_eq!(
            compile_mul_const(5, &zero).unwrap_err(),
            CodegenError::RegisterConflict
        );
    }

    #[test]
    fn unsafe_chain_rejected_for_checking() {
        use addchain::{Chain, Ref, Step};
        let chain = Chain::new(
            15,
            vec![
                Step::Shl {
                    j: Ref::One,
                    amount: 4,
                },
                Step::Sub {
                    j: Ref::Step(1),
                    k: Ref::One,
                },
            ],
        )
        .unwrap();
        let cfg = CodegenConfig::with_overflow_checking();
        assert_eq!(
            compile_chain(&chain, &cfg).unwrap_err(),
            CodegenError::NotOverflowSafe
        );
    }

    #[test]
    fn exhaustive_small_constants_against_rust() {
        // Every constant 0..=1024, a handful of x values, straight-line and
        // exact.
        let cfg = cfg();
        let xs = [0u32, 1, 3, 0x1234_5678, 0xFFFF_FFFF];
        for n in 0..=1024i64 {
            let p = compile_mul_const(n, &cfg).unwrap();
            for &x in &xs {
                let (m, r) = mul_on_sim(&p, x);
                assert_eq!(r.cycles as usize, p.len(), "straight-line code");
                assert_eq!(m.reg(Reg::R28), x.wrapping_mul(n as u32), "{n} * {x}");
            }
        }
    }

    #[test]
    fn generally_four_or_fewer_for_small_constants() {
        // §8 bullet 1 (E14): constants programs actually use (≤ 512 here)
        // compile to four or fewer single-cycle instructions.
        let cfg = cfg();
        let mut worst = 0;
        for n in 1..=512i64 {
            let p = compile_mul_const(n, &cfg).unwrap();
            worst = worst.max(p.len());
        }
        assert!(worst <= 5, "worst static cost {worst}");
    }
}
