//! Code generation for division by compile-time constants.
//!
//! Reproduces §7 of the paper end to end:
//!
//! * powers of two: one `SHR` unsigned; the sign-fixup sequences for signed
//!   dividends (three instructions for `/2`, four in general — the 11-bit
//!   `ADDI` immediate is what separates the paper's "small" and "large"
//!   powers);
//! * even divisors: shift out the power of two, then divide by the odd
//!   factor;
//! * odd divisors: the **derived method** — compute `(x+1)·a + (r-1)` in
//!   two-word (or, when `a ≥ 2^32`, three-word) precision with shift-and-add
//!   pairs, then take the high bits. For `y = 3` this emits exactly the
//!   17-instruction sequence of **Figure 7**;
//! * signed dividends by branching to a negated copy (§7 *Negative
//!   Dividends*): test, divide `|x|`, negate the quotient.
//!
//! The multiplier's shift-add chain comes from [`addchain`]; several `z`
//! exponents are tried, over one chain-search memo, and the cheapest
//! pair-precision cost wins (the paper: "there are an infinite number of
//! choices for z"). Planning runs under the register budget being compiled
//! for and hands its chain to the emitter, so each compile searches once.

use core::fmt;

use addchain::{Chain, Ref, RuleConfig, RuleSearcher, Step};
use pa_isa::{Cond, Im11, IsaError, Program, ProgramBuilder, Reg};

use crate::magic::Magic;

/// Register assignment for division codegen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivCodegenConfig {
    /// Dividend register; never written.
    pub source: Reg,
    /// Quotient destination.
    pub dest: Reg,
    /// Scratch registers. The derived method holds multi-word values, so it
    /// wants around seven (two scratch + three register pairs); the paper's
    /// millicode conventions burn the caller-saves the same way.
    pub temps: Vec<Reg>,
}

impl Default for DivCodegenConfig {
    fn default() -> DivCodegenConfig {
        DivCodegenConfig {
            source: Reg::R26,
            dest: Reg::R28,
            temps: vec![
                Reg::R1,
                Reg::R31,
                Reg::R29,
                Reg::R25,
                Reg::R24,
                Reg::R23,
                Reg::R22,
                Reg::R21,
                Reg::R20,
                Reg::R19,
                Reg::R18,
                Reg::R17,
                Reg::R16,
                Reg::R15,
            ],
        }
    }
}

/// Whether the dividend is interpreted as `u32` or `i32` (truncating
/// division, as C/Pascal/Fortran define it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Signedness {
    /// `u32` dividend.
    Unsigned,
    /// `i32` dividend, quotient truncated toward zero.
    Signed,
}

/// What the generator decided to emit for a divisor.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DivStrategy {
    /// `y = 1`: a register copy.
    Identity,
    /// `y = 2^k`: shift (plus sign fixup when signed).
    PowerOfTwo {
        /// The shift distance.
        k: u32,
    },
    /// Even `y`: shift out `2^k`, then divide by the odd factor.
    EvenSplit {
        /// The power of two removed first.
        k: u32,
        /// The remaining odd divisor.
        odd: u32,
    },
    /// Odd `y`: the derived method.
    Magic {
        /// The chosen parameters.
        magic: Magic,
        /// Chain length for the multiplier `a`.
        chain_len: usize,
        /// Whether three words of intermediate precision are needed.
        triple: bool,
    },
}

impl fmt::Display for DivStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DivStrategy::Identity => write!(f, "identity"),
            DivStrategy::PowerOfTwo { k } => write!(f, "shift by {k}"),
            DivStrategy::EvenSplit { k, odd } => {
                write!(f, "shift by {k} then divide by {odd}")
            }
            DivStrategy::Magic {
                magic,
                chain_len,
                triple,
            } => write!(
                f,
                "derived method: {magic}, chain of {chain_len}{}",
                if *triple { ", triple precision" } else { "" }
            ),
        }
    }
}

/// Errors from division codegen.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DivCodegenError {
    /// Division by zero has no code sequence.
    ZeroDivisor,
    /// Not enough scratch registers for the multi-word chain evaluation.
    OutOfTemps {
        /// Registers the pool would have needed.
        needed: usize,
    },
    /// `source`, `dest` and `temps` must be distinct, non-`r0` registers.
    RegisterConflict,
    /// An instruction could not be constructed.
    Isa(IsaError),
}

impl fmt::Display for DivCodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DivCodegenError::ZeroDivisor => write!(f, "division by zero"),
            DivCodegenError::OutOfTemps { needed } => {
                write!(f, "derived method needs about {needed} scratch registers")
            }
            DivCodegenError::RegisterConflict => {
                write!(
                    f,
                    "source, dest and temp registers must be distinct and non-zero"
                )
            }
            DivCodegenError::Isa(e) => write!(f, "instruction construction failed: {e}"),
        }
    }
}

impl std::error::Error for DivCodegenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DivCodegenError::Isa(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IsaError> for DivCodegenError {
    fn from(e: IsaError) -> DivCodegenError {
        DivCodegenError::Isa(e)
    }
}

/// Chooses the strategy for `y` (`signedness` affects the dividend bound the
/// derived method must cover: `2^31` instead of `2^32`, which occasionally
/// buys a smaller `z`). The multiplier's chain is chosen to fit the register
/// budget of [`DivCodegenConfig::default`].
///
/// # Errors
///
/// [`DivCodegenError::ZeroDivisor`] for `y = 0`.
///
/// # Example
///
/// ```
/// use divconst::{plan, DivStrategy, Signedness};
///
/// match plan(3, Signedness::Unsigned)? {
///     DivStrategy::Magic { magic, .. } => assert_eq!(magic.a(), 0x5555_5555),
///     other => panic!("unexpected: {other}"),
/// }
/// # Ok::<(), divconst::DivCodegenError>(())
/// ```
pub fn plan(y: u32, signedness: Signedness) -> Result<DivStrategy, DivCodegenError> {
    plan_for(y, signedness, &DivCodegenConfig::default()).map(|(strategy, _)| strategy)
}

/// [`plan`] under `config`'s register budget, also handing back the chain a
/// derived-method strategy was costed with, so emitting it searches nothing.
fn plan_for(
    y: u32,
    signedness: Signedness,
    config: &DivCodegenConfig,
) -> Result<(DivStrategy, Option<Chain>), DivCodegenError> {
    if y == 0 {
        return Err(DivCodegenError::ZeroDivisor);
    }
    let (strategy, chain) = if y == 1 {
        (DivStrategy::Identity, None)
    } else if y.is_power_of_two() {
        let k = y.trailing_zeros();
        (DivStrategy::PowerOfTwo { k }, None)
    } else if y.trailing_zeros() > 0 {
        let k = y.trailing_zeros();
        (DivStrategy::EvenSplit { k, odd: y >> k }, None)
    } else {
        let (magic, chain) = choose_magic_with(y, signedness, config);
        let strategy = DivStrategy::Magic {
            triple: !magic_fits_pair(&magic, signedness),
            chain_len: chain.len(),
            magic,
        };
        (strategy, Some(chain))
    };
    telemetry::emit(|| plan_event(y, signedness, &strategy));
    Ok((strategy, chain))
}

/// Builds the [`telemetry::Event::DivPlan`] record for a chosen strategy.
fn plan_event(y: u32, signedness: Signedness, strategy: &DivStrategy) -> telemetry::Event {
    let signed = matches!(signedness, Signedness::Signed);
    let sign_fixup = || if signed { "sign-fixup" } else { "none" };
    let (name, magic_a, shift_s, fixup, chain_len) = match strategy {
        DivStrategy::Identity => ("identity", None, None, "none", None),
        DivStrategy::PowerOfTwo { k } => ("power-of-two", None, Some(*k), sign_fixup(), None),
        DivStrategy::EvenSplit { k, odd: _ } => ("even-split", None, Some(*k), sign_fixup(), None),
        DivStrategy::Magic {
            magic,
            chain_len,
            triple,
        } => (
            "magic",
            Some(magic.a()),
            Some(magic.s()),
            if *triple { "triple-precision" } else { "pair" },
            Some(*chain_len),
        ),
    };
    telemetry::Event::DivPlan {
        y,
        strategy: name,
        magic_a,
        shift_s,
        fixup,
        chain_len,
    }
}

/// Required dividend coverage: `2^32` unsigned, `2^31` for signed
/// magnitudes.
fn needed_reach(signedness: Signedness) -> u128 {
    match signedness {
        Signedness::Unsigned => 1 << 32,
        // |i32::MIN| = 2^31 must still divide correctly.
        Signedness::Signed => (1 << 31) + 1,
    }
}

fn magic_fits_pair(magic: &Magic, signedness: Signedness) -> bool {
    let max_x1 = match signedness {
        Signedness::Unsigned => 1u128 << 32,
        Signedness::Signed => (1u128 << 31) + 1,
    };
    let worst = max_x1 * u128::from(magic.a()) + u128::from(magic.r() - 1);
    worst < (1u128 << 64)
}

/// Peak number of simultaneously live chain values (including the base),
/// which is the number of multi-word register slots the evaluation needs.
fn peak_live(chain: &Chain) -> usize {
    let steps = chain.steps();
    let mut last_use = vec![0usize; steps.len() + 1];
    for (at, step) in steps.iter().enumerate() {
        let (j, k) = step.operands();
        for r in [Some(j), k].into_iter().flatten() {
            match r {
                Ref::One => last_use[0] = at,
                Ref::Step(e) => last_use[e as usize] = at,
                Ref::Zero => {}
            }
        }
    }
    last_use[steps.len()] = steps.len();
    let mut peak = 1; // the base
    for at in 0..steps.len() {
        // Elements created up to and including this step that are still read
        // strictly later, plus this step's own result slot.
        let live = (0..=at + 1)
            .filter(|&e| e == at + 1 || last_use[e] > at)
            .count();
        peak = peak.max(live);
    }
    peak
}

/// Tries several `z` exponents and keeps the cheapest chain that fits
/// `config`'s register budget.
fn choose_magic_with(y: u32, signedness: Signedness, config: &DivCodegenConfig) -> (Magic, Chain) {
    let need = needed_reach(signedness);
    // One searcher per rule set for the whole scan: consecutive multipliers
    // satisfy a_{s+1} ∈ {2a_s, 2a_s + 1}, so their search trees overlap.
    let mut full = RuleSearcher::new(RuleConfig::default());
    // Without the register-hungry split rules.
    let mut no_splits = RuleSearcher::new(RuleConfig {
        allow_splits: false,
        ..RuleConfig::default()
    });
    // Binary rules only (no factor method), whose chains keep at most three
    // values live — longer code, but it always fits.
    let mut binary = RuleSearcher::new(RuleConfig {
        allow_splits: false,
        max_divisor_search: 1,
        ..RuleConfig::default()
    });
    let mut best: Option<(u64, Magic, Chain)> = None;
    let mut fallback: Option<(u64, Magic, Chain)> = None;
    let mut s = 32;
    let mut seen_valid = 0;
    while s <= 63 && seen_valid < 8 {
        if let Ok(m) = Magic::derive_for(y, s, need) {
            seen_valid += 1;
            let triple = !magic_fits_pair(&m, signedness);
            let slots = slots_for(config, if triple { 3 } else { 2 });
            let mut chain = full.find(m.a() as i64);
            if peak_live(&chain) > slots {
                chain = no_splits.find(m.a() as i64);
            }
            if peak_live(&chain) > slots {
                chain = binary.find(m.a() as i64);
            }
            let cost = magic_cost(&m, &chain, signedness);
            let fits = peak_live(&chain) <= slots;
            let slot = if fits { &mut best } else { &mut fallback };
            if slot.as_ref().is_none_or(|(c, _, _)| cost < *c) {
                *slot = Some((cost, m, chain));
            }
        }
        s += 1;
    }
    let (_, m, chain) = best
        .or(fallback)
        .expect("some s in 32..=63 is always valid for odd y ≥ 3");
    (m, chain)
}

/// How many `width`-word slots a configuration's register pool yields.
fn slots_for(config: &DivCodegenConfig, width: usize) -> usize {
    let pool = 1 + config.temps.len().saturating_sub(2); // dest + non-scratch temps
    pool / width
}

/// Estimated dynamic cost of the derived-method body.
fn magic_cost(magic: &Magic, chain: &Chain, signedness: Signedness) -> u64 {
    let triple = !magic_fits_pair(magic, signedness);
    let (shadd, other) = if triple { (5, 3) } else { (3, 2) };
    let mut cost = 2; // init: addi + addc
    for step in chain.steps() {
        cost += match step {
            Step::ShAdd { .. } => shadd,
            Step::Add { .. } | Step::Sub { .. } | Step::Shl { .. } => other,
        };
    }
    if magic.r() > 1 {
        cost += if magic.r() - 1 <= Im11::MAX as u64 {
            2
        } else {
            4
        };
    }
    if magic.s() > 32 || triple {
        cost += 1;
    }
    cost
}

/// Compiles `dest = source / y` for an unsigned or signed dividend.
///
/// # Errors
///
/// See [`DivCodegenError`].
///
/// # Example
///
/// ```
/// use divconst::{compile_div_const, DivCodegenConfig, Signedness};
/// use pa_sim::{run_fn, ExecConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = DivCodegenConfig::default();
/// let p = compile_div_const(3, Signedness::Unsigned, &cfg)?;
/// let (m, stats) = run_fn(&p, &[(cfg.source, 100)], &ExecConfig::default());
/// assert_eq!(m.reg(cfg.dest), 33);
/// assert_eq!(stats.cycles, 17); // Figure 7's count
/// # Ok(())
/// # }
/// ```
pub fn compile_div_const(
    y: u32,
    signedness: Signedness,
    config: &DivCodegenConfig,
) -> Result<Program, DivCodegenError> {
    validate_regs(config)?;
    let mut b = ProgramBuilder::new();
    emit_div(y, signedness, config, config.source, &mut b)?;
    b.build().map_err(DivCodegenError::from)
}

/// Compiles signed division with a possibly negative constant divisor:
/// `q = trunc(x / y)`; for `y < 0` this is the `|y|` program plus a final
/// negation.
///
/// # Errors
///
/// See [`DivCodegenError`].
pub fn compile_div_const_i32(
    y: i32,
    config: &DivCodegenConfig,
) -> Result<Program, DivCodegenError> {
    validate_regs(config)?;
    let mut b = ProgramBuilder::new();
    let magnitude = y.unsigned_abs();
    emit_div(magnitude, Signedness::Signed, config, config.source, &mut b)?;
    if y < 0 {
        b.sub(Reg::R0, config.dest, config.dest);
    }
    b.build().map_err(DivCodegenError::from)
}

fn validate_regs(config: &DivCodegenConfig) -> Result<(), DivCodegenError> {
    let mut regs = vec![config.source, config.dest];
    regs.extend(config.temps.iter().copied());
    if regs.iter().any(|r| r.is_zero()) {
        return Err(DivCodegenError::RegisterConflict);
    }
    let mut sorted = regs.clone();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != regs.len() {
        return Err(DivCodegenError::RegisterConflict);
    }
    Ok(())
}

fn emit_div(
    y: u32,
    signedness: Signedness,
    config: &DivCodegenConfig,
    x: Reg,
    b: &mut ProgramBuilder,
) -> Result<(), DivCodegenError> {
    let (strategy, chain) = plan_for(y, signedness, config)?;
    match strategy {
        DivStrategy::Identity => {
            b.copy(x, config.dest);
            Ok(())
        }
        DivStrategy::PowerOfTwo { k } => {
            emit_pow2(k, signedness, config, x, b);
            Ok(())
        }
        DivStrategy::EvenSplit { k, odd } => {
            // Truncating division composes: trunc(x / 2^k·m) =
            // trunc(trunc(x / 2^k) / m).
            let t = config.temps[0];
            emit_pow2_into(k, signedness, x, t, config, b);
            let inner = DivCodegenConfig {
                source: t,
                dest: config.dest,
                temps: config.temps[1..].to_vec(),
            };
            emit_div(odd, signedness, &inner, t, b)
        }
        DivStrategy::Magic { magic, .. } => {
            let chain = chain.expect("derived-method plans carry their chain");
            match signedness {
                Signedness::Unsigned => emit_magic_unsigned(&magic, &chain, config, x, b),
                Signedness::Signed => emit_magic_signed(&magic, &chain, config, x, b),
            }
        }
    }
}

fn emit_pow2(
    k: u32,
    signedness: Signedness,
    config: &DivCodegenConfig,
    x: Reg,
    b: &mut ProgramBuilder,
) {
    emit_pow2_into(k, signedness, x, config.dest, config, b);
}

/// Division by `2^k` into `dest` (truncating toward zero when signed).
fn emit_pow2_into(
    k: u32,
    signedness: Signedness,
    x: Reg,
    dest: Reg,
    config: &DivCodegenConfig,
    b: &mut ProgramBuilder,
) {
    match signedness {
        Signedness::Unsigned => {
            b.shr(x, k, dest);
        }
        Signedness::Signed if k == 1 => {
            // Three instructions, the paper's "small powers of 2" claim:
            // q = (x + (x >>logical 31)) >>arith 1.
            b.shr(x, 31, dest);
            b.add(x, dest, dest);
            b.sar(dest, 1, dest);
        }
        Signedness::Signed if (1i64 << k) - 1 <= i64::from(Im11::MAX) => {
            // Small powers: bias fits the 11-bit immediate.
            b.addi((1 << k) - 1, x, dest); // biased value
            b.comclr(Cond::Lt, x, Reg::R0, Reg::R0); // x < 0: keep the bias
            b.addi(0, x, dest); // x ≥ 0: unbiased
            b.sar(dest, k, dest);
        }
        Signedness::Signed => {
            // Large powers: build the bias from the sign mask (four
            // instructions, as in the paper).
            let t = config.temps[0];
            b.sar(x, 31, t);
            b.shr(t, 32 - k, t);
            b.add(x, t, dest);
            b.sar(dest, k, dest);
        }
    }
}

// ---------------------------------------------------------------------------
// Derived method: multi-word chain evaluation
// ---------------------------------------------------------------------------

/// A multi-word register group. `words[0]` is the least significant;
/// missing high words read as zero (`r0`).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Value {
    words: Vec<Reg>,
}

impl Value {
    fn word(&self, i: usize) -> Reg {
        self.words.get(i).copied().unwrap_or(Reg::R0)
    }
}

struct PairAlloc {
    /// Register groups available, each `width` long.
    slots: Vec<Value>,
    /// Chain element currently held by each slot (0 = the base `x+1`).
    holds: Vec<Option<u32>>,
    /// Last step index reading each element.
    last_use: Vec<usize>,
}

impl PairAlloc {
    fn slot_of(&self, element: u32) -> Option<&Value> {
        self.holds
            .iter()
            .position(|&h| h == Some(element))
            .map(|i| &self.slots[i])
    }

    fn place(
        &mut self,
        element: u32,
        at: usize,
        prefer_first: bool,
    ) -> Result<usize, DivCodegenError> {
        let dead = |h: Option<u32>| match h {
            None => true,
            Some(e) => self.last_use[e as usize] <= at,
        };
        // The final element wants slot 0, whose high word is `dest` — that
        // makes the s = 32 extraction free (Figure 7's exact count).
        if prefer_first && dead(self.holds[0]) {
            self.holds[0] = Some(element);
            return Ok(0);
        }
        let order = (0..self.slots.len()).rev(); // keep slot 0 free for the end
        for i in order {
            if dead(self.holds[i]) {
                self.holds[i] = Some(element);
                return Ok(i);
            }
        }
        Err(DivCodegenError::OutOfTemps {
            needed: (self.slots.len() + 1) * self.slots[0].words.len() + 2,
        })
    }
}

/// Emits the derived method for an unsigned dividend in `x`.
fn emit_magic_unsigned(
    magic: &Magic,
    chain: &Chain,
    config: &DivCodegenConfig,
    x: Reg,
    b: &mut ProgramBuilder,
) -> Result<(), DivCodegenError> {
    emit_magic_body(magic, chain, config, x, b, BaseInit::PlusOneWithCarry)
}

/// Emits the §7 signed wrapper: branch on sign, divide the magnitude (whose
/// `+1` can no longer carry, so the base's high word is `r0`), negate the
/// quotient on the negative path.
fn emit_magic_signed(
    magic: &Magic,
    chain: &Chain,
    config: &DivCodegenConfig,
    x: Reg,
    b: &mut ProgramBuilder,
) -> Result<(), DivCodegenError> {
    let neg = b.named_label("q_neg");
    let exit = b.named_label("q_exit");
    b.comb(Cond::Lt, x, Reg::R0, neg);
    emit_magic_body(magic, chain, config, x, b, BaseInit::PlusOneNoCarry)?;
    b.b(exit);
    b.bind(neg);
    emit_magic_body(magic, chain, config, x, b, BaseInit::OneMinusX)?;
    b.sub(Reg::R0, config.dest, config.dest);
    b.bind(exit);
    Ok(())
}

/// How the base value (`x + 1` over the magnitude) is materialised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BaseInit {
    /// Unsigned: `lo = x + 1`, `hi = carry` (2 instructions).
    PlusOneWithCarry,
    /// Signed, `x ≥ 0`: `lo = x + 1` cannot carry (1 instruction).
    PlusOneNoCarry,
    /// Signed, `x < 0`: `lo = 1 - x = |x| + 1` cannot carry (1 instruction).
    OneMinusX,
}

fn emit_magic_body(
    magic: &Magic,
    chain: &Chain,
    config: &DivCodegenConfig,
    x: Reg,
    b: &mut ProgramBuilder,
    init: BaseInit,
) -> Result<(), DivCodegenError> {
    let signedness = match init {
        BaseInit::PlusOneWithCarry => Signedness::Unsigned,
        _ => Signedness::Signed,
    };
    let triple = !magic_fits_pair(magic, signedness);
    let width = if triple { 3 } else { 2 };

    // Register budget: 2 dedicated scratch + `width`-sized slots carved from
    // dest + temps.
    if config.temps.len() < 2 + width {
        return Err(DivCodegenError::OutOfTemps {
            needed: 2 + width + 1,
        });
    }
    let scratch = [config.temps[0], config.temps[1]];
    // Slot 0 places `dest` as its most significant word so the final s = 32
    // pair extraction is free when the last chain value lands there.
    let mut pool: Vec<Reg> = match width {
        2 => vec![config.temps[2], config.dest],
        _ => vec![config.temps[2], config.temps[3], config.dest],
    };
    let tail_start = width + 1;
    pool.extend(
        config.temps[tail_start.min(config.temps.len())..]
            .iter()
            .copied(),
    );
    let slots: Vec<Value> = pool
        .chunks_exact(width)
        .map(|c| Value { words: c.to_vec() })
        .collect();
    if slots.len() < 2 {
        return Err(DivCodegenError::OutOfTemps {
            needed: 2 + 2 * width,
        });
    }

    let steps = chain.steps();
    // Liveness (element 0 = base, elements 1.. = steps).
    let mut last_use = vec![0usize; steps.len() + 1];
    for (at, step) in steps.iter().enumerate() {
        let (j, k) = step.operands();
        for r in [Some(j), k].into_iter().flatten() {
            match r {
                Ref::One => last_use[0] = at,
                Ref::Step(e) => last_use[e as usize] = at,
                Ref::Zero => {}
            }
        }
    }
    // The final element is read by the extraction "step".
    last_use[steps.len()] = steps.len();

    let mut alloc = PairAlloc {
        slots,
        holds: vec![None; 0],
        last_use,
    };
    alloc.holds = vec![None; alloc.slots.len()];

    // Base init: element 0. With no carry possible the high words stay r0
    // and the base does not consume a slot at all — it is (r0, lo).
    let base: Value = match init {
        BaseInit::PlusOneWithCarry => {
            let slot = alloc.place(0, 0, false)?;
            let v = alloc.slots[slot].clone();
            b.addi(1, x, v.word(0));
            b.addc(Reg::R0, Reg::R0, v.word(1));
            // Words beyond the pair read as r0 through Value::word.
            Value {
                words: vec![v.word(0), v.word(1)],
            }
        }
        BaseInit::PlusOneNoCarry | BaseInit::OneMinusX => {
            // |x| + 1 ≤ 2^31 + 1 fits one word; the high words are literally
            // r0. The base still claims a slot so its low register survives
            // while the chain references it.
            let slot = alloc.place(0, 0, false)?;
            let lo = alloc.slots[slot].word(0);
            match init {
                BaseInit::PlusOneNoCarry => b.addi(1, x, lo),
                _ => b.subi(1, x, lo),
            };
            Value { words: vec![lo] }
        }
    };

    // Evaluate the chain over multi-word values.
    let get = |alloc: &PairAlloc, r: Ref, base: &Value| -> Value {
        match r {
            Ref::Zero => Value { words: vec![] },
            Ref::One => base.clone(),
            Ref::Step(e) => alloc.slot_of(e).expect("chain refs resolve").clone(),
        }
    };
    for (at, step) in steps.iter().enumerate() {
        let element = (at + 1) as u32;
        let (j, k) = step.operands();
        let pj = get(&alloc, j, &base);
        let pk = k.map(|k| get(&alloc, k, &base));
        let is_final = at + 1 == steps.len() && magic.s() == 32;
        let slot = alloc.place(element, at, is_final)?;
        let dst = alloc.slots[slot].clone();
        match *step {
            Step::Add { .. } => emit_wide_add(b, &pj, pk.as_ref().expect("add"), &dst, width),
            Step::Sub { .. } => emit_wide_sub(b, &pj, pk.as_ref().expect("sub"), &dst, width),
            Step::ShAdd { sh, .. } => emit_wide_shadd(
                b,
                sh,
                &pj,
                pk.as_ref().expect("shadd"),
                &dst,
                width,
                scratch,
            ),
            Step::Shl { amount, .. } => emit_wide_shl(b, amount, &pj, &dst, width),
        }
    }

    let result = if steps.is_empty() {
        base.clone()
    } else {
        alloc
            .slot_of(steps.len() as u32)
            .expect("final element placed")
            .clone()
    };

    // Add (r - 1) when r > 1 (for r = 1 the (x+1)·a form absorbed it).
    if magic.r() > 1 {
        let delta = magic.r() - 1;
        if delta <= Im11::MAX as u64 {
            b.addi(delta as i32, result.word(0), result.word(0));
        } else {
            b.load_const(delta as u32, scratch[0]);
            b.add(scratch[0], result.word(0), result.word(0));
        }
        b.addc(Reg::R0, result.word(1), result.word(1));
        if width == 3 {
            b.addc(Reg::R0, result.word(2), result.word(2));
        }
    }

    // Extract the quotient: bits [s, s+32) of the product.
    let s = magic.s();
    if s == 32 {
        if result.word(1) != config.dest {
            b.copy(result.word(1), config.dest);
        }
    } else if triple {
        b.shd(result.word(2), result.word(1), s - 32, config.dest);
    } else {
        b.shr(result.word(1), s - 32, config.dest);
    }
    Ok(())
}

fn emit_wide_add(b: &mut ProgramBuilder, p: &Value, q: &Value, dst: &Value, width: usize) {
    b.add(p.word(0), q.word(0), dst.word(0));
    b.addc(p.word(1), q.word(1), dst.word(1));
    if width == 3 {
        b.addc(p.word(2), q.word(2), dst.word(2));
    }
}

fn emit_wide_sub(b: &mut ProgramBuilder, p: &Value, q: &Value, dst: &Value, width: usize) {
    b.sub(p.word(0), q.word(0), dst.word(0));
    b.subb(p.word(1), q.word(1), dst.word(1));
    if width == 3 {
        b.subb(p.word(2), q.word(2), dst.word(2));
    }
}

/// `(p << sh) + q` for `sh ≤ 3` — the Figure 7 workhorse: `SHD` recovers the
/// bits the pre-shifter drops, `SHxADD` produces the low word and the carry,
/// `ADDC` folds both into the high word. Three instructions in pair
/// precision, five in triple.
fn emit_wide_shadd(
    b: &mut ProgramBuilder,
    sh: u32,
    p: &Value,
    q: &Value,
    dst: &Value,
    width: usize,
    scratch: [Reg; 2],
) {
    let sh_amount = pa_isa::ShAmount::new(sh).expect("chain shadd is 1..=3");
    // High parts of p << sh, captured before any destination write can
    // clobber p's words.
    let h1 = scratch[0];
    b.shd(p.word(1), p.word(0), 32 - sh, h1);
    let h2 = scratch[1];
    if width == 3 {
        b.shd(p.word(2), p.word(1), 32 - sh, h2);
    }
    b.raw(pa_isa::Op::ShAdd {
        sh: sh_amount,
        a: p.word(0),
        b: q.word(0),
        t: dst.word(0),
        trap: false,
    });
    b.addc(h1, q.word(1), dst.word(1));
    if width == 3 {
        b.addc(h2, q.word(2), dst.word(2));
    }
}

/// `p << amount` in multi-word precision: `SHD`s from most to least
/// significant, then the low shift — the ordering makes in-place shifts
/// (`dst = p`) safe, so no scratch or copies are needed (2 instructions in
/// pair precision, 3 in triple).
fn emit_wide_shl(b: &mut ProgramBuilder, amount: u32, p: &Value, dst: &Value, width: usize) {
    debug_assert!((1..=31).contains(&amount));
    if width == 3 {
        b.shd(p.word(2), p.word(1), 32 - amount, dst.word(2));
        b.shd(p.word(1), p.word(0), 32 - amount, dst.word(1));
        b.shl(p.word(0), amount, dst.word(0));
    } else {
        b.shd(p.word(1), p.word(0), 32 - amount, dst.word(1));
        b.shl(p.word(0), amount, dst.word(0));
    }
}
