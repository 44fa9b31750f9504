//! The compile-time facade: constants into straight-line code.

use core::fmt;
use std::sync::Arc;

use divconst::{DivCodegenConfig, DivCodegenError, Signedness};
use mulconst::{CodegenConfig, CodegenError};
#[cfg(test)]
use pa_isa::{Im11, Insn, Op};
use pa_isa::{Program, Reg};
use pa_lint::{Claim, LintLevel, LintSpec};
use pa_sim::{
    ExecConfig, FaultPlan, Machine, OverflowModel, PreparedProgram, Termination, TrapKind,
};

use crate::cache::{CacheKey, CacheShardStats, CompileCache, ShardedCache};
use crate::session::BatchOutcome;
use crate::{Error, Result};

/// What a [`CompiledOp`] computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `dest = source * constant` (wrapping or trapping).
    MulConst {
        /// The constant.
        n: i64,
        /// Whether overflow traps.
        checked: bool,
    },
    /// `dest = source / constant`, unsigned.
    UdivConst {
        /// The divisor.
        y: u32,
    },
    /// `dest = trunc(source / constant)`, signed.
    SdivConst {
        /// The divisor.
        y: i32,
    },
    /// `dest = source % constant`, unsigned.
    UremConst {
        /// The divisor.
        y: u32,
    },
    /// `dest = source % constant`, signed (remainder keeps the dividend's
    /// sign, as in C).
    SremConst {
        /// The divisor.
        y: i32,
    },
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::MulConst { n, checked: false } => write!(f, "x * {n}"),
            OpKind::MulConst { n, checked: true } => write!(f, "x * {n} (checked)"),
            OpKind::UdivConst { y } => write!(f, "x / {y}u"),
            OpKind::SdivConst { y } => write!(f, "x / {y}"),
            OpKind::UremConst { y } => write!(f, "x % {y}u"),
            OpKind::SremConst { y } => write!(f, "x % {y}"),
        }
    }
}

/// Legacy error type of the pre-0.2 [`Compiler`] API. New code should match
/// on [`crate::Error`], which every façade method now returns; this enum
/// remains for callers migrating off the old signatures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CompilerError {
    /// Multiplication codegen failed.
    Mul(CodegenError),
    /// Division codegen failed.
    Div(DivCodegenError),
    /// The compiled code trapped when executed (overflow, divide by zero).
    Trapped(TrapKind),
    /// The compiled code did not run to completion.
    DidNotComplete,
}

impl fmt::Display for CompilerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompilerError::Mul(e) => write!(f, "multiply codegen: {e}"),
            CompilerError::Div(e) => write!(f, "divide codegen: {e}"),
            CompilerError::Trapped(TrapKind::Overflow) => write!(f, "overflow trap"),
            CompilerError::Trapped(TrapKind::Break(code)) => {
                write!(f, "break trap (code {code})")
            }
            CompilerError::DidNotComplete => write!(f, "execution did not complete"),
        }
    }
}

impl std::error::Error for CompilerError {}

impl From<CodegenError> for CompilerError {
    fn from(e: CodegenError) -> CompilerError {
        CompilerError::Mul(e)
    }
}

impl From<DivCodegenError> for CompilerError {
    fn from(e: DivCodegenError) -> CompilerError {
        CompilerError::Div(e)
    }
}

/// A compiled constant operation: the prepared program, its registers,
/// and execution helpers backed by the simulator.
#[derive(Debug, Clone)]
pub struct CompiledOp {
    kind: OpKind,
    prepared: PreparedProgram,
    source: Reg,
    dest: Reg,
}

impl CompiledOp {
    /// What this code computes.
    #[must_use]
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// The generated instructions.
    #[must_use]
    pub fn program(&self) -> &Program {
        self.prepared.program()
    }

    /// The executable form: the program with its execution configuration.
    #[must_use]
    pub fn prepared(&self) -> &PreparedProgram {
        &self.prepared
    }

    /// Static instruction count. For the straight-line multiply/divide
    /// bodies this equals the cycle count; branchy signed divisions may run
    /// slightly below it.
    #[must_use]
    pub fn len(&self) -> usize {
        self.prepared.len()
    }

    /// Whether the program is empty (never true for real operations).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.prepared.is_empty()
    }

    /// Cycles consumed for a representative input (for straight-line code,
    /// any input).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles_for(1)
    }

    /// Cycles consumed for a specific input value.
    #[must_use]
    pub fn cycles_for(&self, x: u32) -> u64 {
        let mut m = Machine::with_regs(&[(self.source, x)]);
        self.prepared.run(&mut m).cycles
    }

    fn run_on(&self, machine: &mut Machine, x: u32) -> Result<(u32, u64)> {
        machine.reset();
        machine.set_reg(self.source, x);
        let r = self.prepared.run(machine);
        match r.termination {
            Termination::Completed => Ok((machine.reg(self.dest), r.cycles)),
            Termination::Trapped(t)
                if t.kind == TrapKind::Break(pa_sim::fault::DIVERGENCE_BREAK) =>
            {
                Err(Error::FaultDetected)
            }
            Termination::Trapped(t) => Err(Error::Trapped(t.kind)),
            _ => Err(Error::DidNotComplete),
        }
    }

    /// Runs on an unsigned input.
    ///
    /// # Errors
    ///
    /// [`Error::Trapped`] when the code traps (checked overflow).
    pub fn run_u32(&self, x: u32) -> Result<u32> {
        let mut m = Machine::new();
        self.run_on(&mut m, x).map(|(v, _)| v)
    }

    /// Runs on a signed input.
    ///
    /// # Errors
    ///
    /// [`Error::Trapped`] when the code traps (checked overflow).
    pub fn run_i32(&self, x: i32) -> Result<i32> {
        self.run_u32(x as u32).map(|v| v as i32)
    }

    /// Runs the whole batch through one reused machine, returning every
    /// result plus the total simulated cycles. The machine is reset between
    /// inputs, so results are identical to per-call [`run_u32`].
    ///
    /// # Errors
    ///
    /// Fails on the first input that traps or does not complete.
    ///
    /// [`run_u32`]: CompiledOp::run_u32
    pub fn run_batch_u32(&self, inputs: &[u32]) -> Result<BatchOutcome<u32>> {
        let mut machine = Machine::new();
        let mut values = Vec::with_capacity(inputs.len());
        let mut cycles = 0u64;
        for &x in inputs {
            let (v, c) = self.run_on(&mut machine, x)?;
            values.push(v);
            cycles += c;
        }
        Ok(BatchOutcome {
            values,
            rems: None,
            cycles,
        })
    }

    /// Signed spelling of [`CompiledOp::run_batch_u32`].
    ///
    /// # Errors
    ///
    /// Fails on the first input that traps or does not complete.
    pub fn run_batch_i32(&self, inputs: &[i32]) -> Result<BatchOutcome<i32>> {
        let mut machine = Machine::new();
        let mut values = Vec::with_capacity(inputs.len());
        let mut cycles = 0u64;
        for &x in inputs {
            let (v, c) = self.run_on(&mut machine, x as u32)?;
            values.push(v as i32);
            cycles += c;
        }
        Ok(BatchOutcome {
            values,
            rems: None,
            cycles,
        })
    }
}

impl fmt::Display for CompiledOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; {}", self.kind)?;
        write!(f, "{}", self.program())
    }
}

/// Configures a [`Compiler`] — the scattered knobs in one place.
///
/// # Example
///
/// ```
/// use hppa_muldiv::{Compiler, sim::OverflowModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let c = Compiler::builder()
///     .overflow(OverflowModel::Precise)
///     .cache_capacity(64)
///     .build();
/// assert_eq!(c.mul_const(10)?.cycles(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompilerBuilder {
    overflow: OverflowModel,
    trapping_mul: bool,
    max_cycles: u64,
    stats: bool,
    cache_capacity: usize,
    cache_shards: usize,
    fault_plan: Option<FaultPlan>,
    lint: LintLevel,
    #[cfg(test)]
    miscompile: Miscompile,
}

/// Which lint level a fresh [`CompilerBuilder`] starts at: every program is
/// linted and verified in debug builds (and thus under `cargo test`), while
/// release builds skip the pass unless [`CompilerBuilder::lint`] opts in.
#[must_use]
pub fn default_lint_level() -> LintLevel {
    if cfg!(debug_assertions) {
        LintLevel::Default
    } else {
        LintLevel::Off
    }
}

/// Test-only deliberate miscompilation, injected between code generation and
/// the lint gate. Used by the regression suite to prove the linter catches
/// the classic constant-division and chain bugs.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Miscompile {
    /// No mutation (the production setting).
    #[default]
    None,
    /// Bump the immediate of the first `ADDI` in division programs — the
    /// classic off-by-one magic/rounding constant.
    MagicOffByOne,
    /// Drop the first `SHxADD` from multiplication chains.
    DropShAdd,
}

/// Applies the test-only [`Miscompile`] mutation to a freshly generated
/// program. `MagicOffByOne` targets the division family (its first `ADDI`
/// is the magic/rounding-constant setup); `DropShAdd` targets multiply
/// chains. Programs without a matching instruction pass through unchanged.
#[cfg(test)]
fn apply_miscompile(miscompile: Miscompile, kind: OpKind, program: Program) -> Program {
    let mutated = match (miscompile, kind) {
        (Miscompile::MagicOffByOne, OpKind::MulConst { .. }) => None,
        (Miscompile::MagicOffByOne, _) => {
            let mut insns: Vec<Insn> = program.iter().cloned().collect();
            insns
                .iter()
                .position(|insn| matches!(insn.op, Op::Addi { .. }))
                .and_then(|at| {
                    if let Op::Addi { i, b, t, trap } = insns[at].op {
                        let bumped = Im11::new(i.value() + 1).ok()?;
                        insns[at] = Insn::new(Op::Addi {
                            i: bumped,
                            b,
                            t,
                            trap,
                        });
                        Program::new(insns).ok()
                    } else {
                        None
                    }
                })
        }
        (Miscompile::DropShAdd, OpKind::MulConst { .. }) => program
            .iter()
            .position(|insn| matches!(insn.op, Op::ShAdd { .. }))
            .and_then(|at| {
                let insns: Vec<Insn> = program
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != at)
                    .map(|(_, insn)| *insn)
                    .collect();
                Program::new(insns).ok()
            }),
        _ => None,
    };
    mutated.unwrap_or(program)
}

impl CompilerBuilder {
    fn new() -> CompilerBuilder {
        CompilerBuilder {
            overflow: OverflowModel::default(),
            trapping_mul: false,
            max_cycles: ExecConfig::default().max_cycles,
            stats: false,
            cache_capacity: CompileCache::DEFAULT_CAPACITY,
            cache_shards: ShardedCache::DEFAULT_SHARDS,
            fault_plan: None,
            lint: default_lint_level(),
            #[cfg(test)]
            miscompile: Miscompile::None,
        }
    }

    /// Overflow detector baked into the compiled programs' execution.
    #[must_use]
    pub fn overflow(mut self, model: OverflowModel) -> CompilerBuilder {
        self.overflow = model;
        self
    }

    /// Makes [`Compiler::mul_const`] emit trapping (Pascal-flavor) chains by
    /// default, as if every call were [`Compiler::mul_const_checked`].
    #[must_use]
    pub fn trapping_mul(mut self, trapping: bool) -> CompilerBuilder {
        self.trapping_mul = trapping;
        self
    }

    /// Watchdog budget for executing compiled programs.
    #[must_use]
    pub fn max_cycles(mut self, max_cycles: u64) -> CompilerBuilder {
        self.max_cycles = max_cycles;
        self
    }

    /// Run compiled programs with simulator statistics on (runs take the
    /// simulator's instrumented loop). The statistics are collected but not
    /// returned by the façade's calls, which report values and cycles only;
    /// a compiled op's statistics are reachable only by running
    /// [`CompiledOp::prepared`] directly, whose
    /// [`RunResult::stats`](pa_sim::RunResult::stats) carries them.
    #[must_use]
    pub fn stats(mut self, stats: bool) -> CompilerBuilder {
        self.stats = stats;
        self
    }

    /// Bound on cached compiled programs; zero disables the cache.
    #[must_use]
    pub fn cache_capacity(mut self, capacity: usize) -> CompilerBuilder {
        self.cache_capacity = capacity;
        self
    }

    /// Number of independent lock shards the cache is split into (clamped
    /// to at least one). More shards means less contention when many worker
    /// threads compile concurrently; strict validation lives on
    /// [`RuntimeBuilder::cache_shards`](crate::RuntimeBuilder::cache_shards),
    /// whose `build` can report errors.
    #[must_use]
    pub fn cache_shards(mut self, shards: usize) -> CompilerBuilder {
        self.cache_shards = shards;
        self
    }

    /// Arms a deterministic fault-injection plan for chaos drills (see
    /// [`pa_sim::fault`]). Compiled programs then execute under the plan
    /// (with divergence checking), and a shard-poison plan arms the compile
    /// cache to poison its target on first lookup. `None` — the default —
    /// is the production setting and adds no per-run work beyond a single
    /// `Option` check.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> CompilerBuilder {
        self.fault_plan = Some(plan);
        self
    }

    /// Machine-code lint level applied to every freshly compiled program,
    /// before it reaches the cache. At [`LintLevel::Default`] and above,
    /// each sequence is run through `pa_lint` — structural rules plus the
    /// abstract-interpretation proof that it computes its claim — and any
    /// finding turns the compile into [`Error::LintRejected`]. Defaults to
    /// [`LintLevel::Default`] in debug builds and [`LintLevel::Off`] in
    /// release builds (see [`default_lint_level`]).
    #[must_use]
    pub fn lint(mut self, level: LintLevel) -> CompilerBuilder {
        self.lint = level;
        self
    }

    /// Injects a deliberate miscompilation (see [`Miscompile`]).
    #[cfg(test)]
    #[must_use]
    fn miscompile(mut self, miscompile: Miscompile) -> CompilerBuilder {
        self.miscompile = miscompile;
        self
    }

    /// Builds the compiler.
    #[must_use]
    pub fn build(self) -> Compiler {
        let exec = ExecConfig {
            overflow: self.overflow,
            max_cycles: self.max_cycles,
            profile: false,
            trace: false,
            stats: self.stats,
            fault_plan: self.fault_plan,
        };
        let cache = Arc::new(ShardedCache::new(self.cache_capacity, self.cache_shards));
        if let Some(shard) = exec.fault_plan.as_ref().and_then(FaultPlan::poisons_shard) {
            cache.arm_poison(shard);
        }
        Compiler {
            mul_cfg: CodegenConfig::default(),
            div_cfg: DivCodegenConfig::default(),
            exec,
            trapping_mul: self.trapping_mul,
            cache,
            lint: self.lint,
            #[cfg(test)]
            miscompile: self.miscompile,
        }
    }
}

/// Compiles constant multiplications and divisions the way the Precision
/// compilers' code generator does. Compiled programs are memoised in a
/// bounded, strategy-keyed cache: compiling the same constant twice does
/// the chain search / magic derivation once.
///
/// The cache is sharded and thread-safe, and it sits behind an `Arc`:
/// `Compiler` is `Send + Sync`, `&Compiler` can be used from many threads
/// at once, and **clones share the same cache**, so a worker pool holding
/// one clone each still pays every distinct compile exactly once.
///
/// # Example
///
/// ```
/// use hppa_muldiv::Compiler;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let c = Compiler::new();
/// let op = c.mul_const(1000)?;
/// assert!(op.cycles() <= 4); // §8: "generally four or fewer"
/// assert_eq!(op.run_i32(-3)?, -3000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Compiler {
    mul_cfg: CodegenConfig,
    div_cfg: DivCodegenConfig,
    exec: ExecConfig,
    trapping_mul: bool,
    cache: Arc<ShardedCache>,
    lint: LintLevel,
    #[cfg(test)]
    miscompile: Miscompile,
}

impl Compiler {
    /// A compiler with the PA-RISC argument-register conventions and
    /// default knobs.
    #[must_use]
    pub fn new() -> Compiler {
        Compiler::builder().build()
    }

    /// Starts configuring a compiler.
    #[must_use]
    pub fn builder() -> CompilerBuilder {
        CompilerBuilder::new()
    }

    /// Compiles `x * n`; wrapping (C semantics) unless the builder asked
    /// for trapping multiplies.
    ///
    /// # Errors
    ///
    /// See [`Error`].
    pub fn mul_const(&self, n: i64) -> Result<CompiledOp> {
        self.compile(OpKind::MulConst {
            n,
            checked: self.trapping_mul,
        })
    }

    /// Compiles `x * n` with overflow trapping (Pascal semantics); the chain
    /// is restricted to the monotonic trapping-capable form (§5 *Overflow*).
    ///
    /// # Errors
    ///
    /// See [`Error`].
    pub fn mul_const_checked(&self, n: i64) -> Result<CompiledOp> {
        self.compile(OpKind::MulConst { n, checked: true })
    }

    /// Compiles unsigned `x / y`.
    ///
    /// # Errors
    ///
    /// See [`Error`]; `y = 0` reports [`Error::DivideByZero`].
    pub fn udiv_const(&self, y: u32) -> Result<CompiledOp> {
        self.compile(OpKind::UdivConst { y })
    }

    /// Compiles signed `trunc(x / y)` (y may be negative).
    ///
    /// # Errors
    ///
    /// See [`Error`].
    pub fn sdiv_const(&self, y: i32) -> Result<CompiledOp> {
        self.compile(OpKind::SdivConst { y })
    }

    /// Compiles unsigned `x % y` — an extension composed from the paper's
    /// pieces: `x - (x / y) * y`, with the multiply-back going through the
    /// §5 constant-multiply chains.
    ///
    /// # Errors
    ///
    /// See [`Error`].
    pub fn urem_const(&self, y: u32) -> Result<CompiledOp> {
        self.compile(OpKind::UremConst { y })
    }

    /// Compiles signed `x % y` (C semantics: the remainder takes the
    /// dividend's sign) — composed as `x - trunc(x / y) * y`.
    ///
    /// # Errors
    ///
    /// See [`Error`].
    pub fn srem_const(&self, y: i32) -> Result<CompiledOp> {
        self.compile(OpKind::SremConst { y })
    }

    /// Cached programs currently resident (summed across shards).
    #[must_use]
    pub fn cached_ops(&self) -> usize {
        self.cache.entries()
    }

    /// Per-shard occupancy and hit/miss/eviction counters, in shard order.
    /// Counters are cumulative over the cache's lifetime and shared with
    /// every clone of this compiler.
    #[must_use]
    pub fn cache_stats(&self) -> Vec<CacheShardStats> {
        self.cache.stats()
    }

    /// Lock shards the cache is split into (after clamping to the
    /// capacity, so every shard holds at least one entry).
    #[must_use]
    pub fn cache_shard_count(&self) -> usize {
        self.cache.shard_count()
    }

    fn compile(&self, kind: OpKind) -> Result<CompiledOp> {
        let _span = telemetry::span::enter_with("compile", || kind.to_string());
        let key = CacheKey {
            kind,
            overflow: self.exec.overflow,
        };
        let cached = {
            let _lookup = telemetry::span::enter("cache_lookup");
            self.cache.lookup(&key)
        };
        if let Some(op) = cached {
            telemetry::emit(|| telemetry::Event::CacheLookup {
                op: kind.to_string(),
                hit: true,
                entries: self.cache.entries(),
            });
            return Ok(op);
        }
        let op = self.compile_cold(kind)?;
        self.cache.insert(key, op.clone());
        telemetry::emit(|| telemetry::Event::CacheLookup {
            op: kind.to_string(),
            hit: false,
            entries: self.cache.entries(),
        });
        Ok(op)
    }

    fn compile_cold(&self, kind: OpKind) -> Result<CompiledOp> {
        let _span = telemetry::span::enter_with("compile_cold", || kind.to_string());
        let (program, source) = match kind {
            OpKind::MulConst { n, checked } => {
                let cfg = CodegenConfig {
                    check_overflow: checked,
                    ..self.mul_cfg.clone()
                };
                (mulconst::compile_mul_const(n, &cfg)?, cfg.source)
            }
            OpKind::UdivConst { y } => (
                divconst::compile_div_const(y, Signedness::Unsigned, &self.div_cfg)?,
                self.div_cfg.source,
            ),
            OpKind::SdivConst { y } => (
                divconst::compile_div_const_i32(y, &self.div_cfg)?,
                self.div_cfg.source,
            ),
            OpKind::UremConst { y } => {
                let div = divconst::compile_div_const(y, Signedness::Unsigned, &self.div_cfg)?;
                (self.compose_rem(div, i64::from(y))?, self.div_cfg.source)
            }
            OpKind::SremConst { y } => {
                let div = divconst::compile_div_const_i32(y, &self.div_cfg)?;
                (self.compose_rem(div, i64::from(y))?, self.div_cfg.source)
            }
        };
        #[cfg(test)]
        let program = apply_miscompile(self.miscompile, kind, program);
        self.lint_gate(kind, &program)?;
        Ok(self.wrap(kind, program, source))
    }

    /// Runs the freshly generated program through `pa-lint` at the
    /// configured level and turns any finding into a typed rejection. The
    /// gate sees the program exactly as it will be cached and executed (in
    /// unit tests, *after* any injected miscompilation).
    fn lint_gate(&self, kind: OpKind, program: &Program) -> Result<()> {
        if self.lint == LintLevel::Off {
            return Ok(());
        }
        let _span = telemetry::span::enter_with("lint", || kind.to_string());
        let spec = match kind {
            OpKind::MulConst { n, checked } => {
                LintSpec::mul_const(n, checked, self.mul_cfg.source, self.mul_cfg.dest)
            }
            OpKind::UdivConst { y } => LintSpec::div_const(
                Claim::UdivConst { y },
                self.div_cfg.source,
                self.div_cfg.dest,
            ),
            OpKind::SdivConst { y } => LintSpec::div_const(
                Claim::SdivConst { y },
                self.div_cfg.source,
                self.div_cfg.dest,
            ),
            OpKind::UremConst { y } => LintSpec::div_const(
                Claim::UremConst { y },
                self.div_cfg.source,
                self.div_cfg.dest,
            ),
            OpKind::SremConst { y } => LintSpec::div_const(
                Claim::SremConst { y },
                self.div_cfg.source,
                self.div_cfg.dest,
            ),
        }
        .with_level(self.lint);
        let report = pa_lint::lint_program(program, &spec);
        let verdict = if !report.is_clean() {
            "rejected"
        } else if report.proved {
            "proved"
        } else {
            "clean"
        };
        telemetry::emit(|| telemetry::Event::Lint {
            routine: kind.to_string(),
            verdict,
            findings: report.findings.len() as u64,
        });
        if report.is_clean() {
            Ok(())
        } else {
            Err(Error::LintRejected {
                op: kind.to_string(),
                findings: report.findings,
            })
        }
    }

    /// Appends the multiply-back and subtract that turn a quotient program
    /// into a remainder program.
    fn compose_rem(&self, div: Program, y: i64) -> Result<Program> {
        let quotient = self.div_cfg.dest;
        let product = self.div_cfg.temps[0];
        let mul_cfg = CodegenConfig {
            source: quotient,
            dest: product,
            temps: self.div_cfg.temps[1..6].to_vec(),
            check_overflow: false,
        };
        let mul = mulconst::compile_mul_const(y, &mul_cfg)?;
        let mut combined = div.concat(&mul, "_mulback");
        let mut b = pa_isa::ProgramBuilder::new();
        b.sub(self.div_cfg.source, product, quotient);
        let sub = b.build().expect("single sub builds");
        combined = combined.concat(&sub, "_rem");
        Ok(combined)
    }

    fn wrap(&self, kind: OpKind, program: Program, source: Reg) -> CompiledOp {
        let prepared = PreparedProgram::new(&program, self.exec.clone());
        telemetry::emit(|| telemetry::Event::Prepare {
            label: kind.to_string(),
            len: prepared.len(),
        });
        CompiledOp {
            kind,
            prepared,
            source,
            dest: self.div_cfg.dest,
        }
    }
}

impl Default for Compiler {
    fn default() -> Compiler {
        Compiler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_const_examples() {
        let c = Compiler::new();
        for (n, x, expect) in [(10i64, 7i32, 70i32), (-3, 9, -27), (0, 5, 0), (1, -4, -4)] {
            let op = c.mul_const(n).unwrap();
            assert_eq!(op.run_i32(x).unwrap(), expect, "{n} * {x}");
        }
    }

    #[test]
    fn checked_mul_traps() {
        let c = Compiler::new();
        let op = c.mul_const_checked(3).unwrap();
        assert_eq!(op.run_i32(10).unwrap(), 30);
        assert_eq!(
            op.run_i32(i32::MAX / 2),
            Err(Error::Trapped(TrapKind::Overflow))
        );
    }

    #[test]
    fn udiv_figure7() {
        let c = Compiler::new();
        let op = c.udiv_const(3).unwrap();
        assert_eq!(op.cycles(), 17);
        assert_eq!(op.run_u32(u32::MAX).unwrap(), u32::MAX / 3);
    }

    #[test]
    fn sdiv_negative_divisor() {
        let c = Compiler::new();
        let op = c.sdiv_const(-7).unwrap();
        assert_eq!(op.run_i32(100).unwrap(), -14);
        assert_eq!(op.run_i32(-100).unwrap(), 14);
    }

    #[test]
    fn urem_composition() {
        let c = Compiler::new();
        for y in [2u32, 3, 7, 10, 12, 100] {
            let op = c.urem_const(y).unwrap();
            for x in [0u32, 1, 99, 12345, u32::MAX] {
                assert_eq!(op.run_u32(x).unwrap(), x % y, "{x} % {y}");
            }
        }
    }

    #[test]
    fn srem_composition() {
        let c = Compiler::new();
        for y in [2i32, 3, -3, 7, -10, 12] {
            let op = c.srem_const(y).unwrap();
            for x in [0i32, 1, -1, 99, -99, 12345, -12345, i32::MAX, i32::MIN + 1] {
                let expect = (i64::from(x) % i64::from(y)) as i32;
                assert_eq!(op.run_i32(x).unwrap(), expect, "{x} % {y}");
            }
        }
    }

    #[test]
    fn display_shows_kind_and_listing() {
        let c = Compiler::new();
        let op = c.mul_const(10).unwrap();
        let text = op.to_string();
        assert!(text.contains("; x * 10"));
        assert!(text.contains("sh2add"));
    }

    #[test]
    fn cycle_accounting() {
        let c = Compiler::new();
        let op = c.mul_const(10).unwrap();
        assert_eq!(op.cycles(), 2);
        assert_eq!(op.len(), 2);
        assert!(!op.is_empty());
        assert_eq!(
            op.kind(),
            OpKind::MulConst {
                n: 10,
                checked: false
            }
        );
    }

    #[test]
    fn repeated_compiles_hit_the_cache() {
        let c = Compiler::new();
        let (ops, events) = telemetry::collect(|| {
            let first = c.mul_const(10).unwrap();
            let second = c.mul_const(10).unwrap();
            (first, second)
        });
        assert_eq!(ops.0.program().insns(), ops.1.program().insns());
        let hist = telemetry::strategy_histogram(&events);
        assert_eq!(hist.get("cache/miss"), Some(&1));
        assert_eq!(hist.get("cache/hit"), Some(&1));
        assert_eq!(hist.get("prepare/program"), Some(&1), "compiled once");
        assert_eq!(c.cached_ops(), 1);
    }

    #[test]
    fn checked_and_unchecked_do_not_share_cache_entries() {
        let c = Compiler::new();
        let plain = c.mul_const(3).unwrap();
        let checked = c.mul_const_checked(3).unwrap();
        assert_ne!(plain.kind(), checked.kind());
        assert_eq!(c.cached_ops(), 2);
    }

    #[test]
    fn builder_trapping_mul_makes_mul_const_checked() {
        let c = Compiler::builder().trapping_mul(true).build();
        let op = c.mul_const(3).unwrap();
        assert_eq!(
            op.kind(),
            OpKind::MulConst {
                n: 3,
                checked: true
            }
        );
        assert!(matches!(
            op.run_i32(i32::MAX / 2),
            Err(Error::Trapped(TrapKind::Overflow))
        ));
    }

    #[test]
    fn builder_zero_capacity_disables_cache() {
        let c = Compiler::builder().cache_capacity(0).build();
        c.mul_const(10).unwrap();
        c.mul_const(10).unwrap();
        assert_eq!(c.cached_ops(), 0);
    }

    #[test]
    fn lint_defaults_track_build_profile() {
        let expected = if cfg!(debug_assertions) {
            LintLevel::Default
        } else {
            LintLevel::Off
        };
        assert_eq!(super::default_lint_level(), expected);
        let c = Compiler::new();
        assert_eq!(c.lint, expected);
    }

    #[test]
    fn lint_gate_emits_telemetry_and_passes_real_codegen() {
        let c = Compiler::builder().lint(LintLevel::Default).build();
        let (result, events) = telemetry::collect(|| {
            c.mul_const(10).unwrap();
            c.udiv_const(7).unwrap();
            c.srem_const(-12).unwrap();
        });
        let hist = telemetry::strategy_histogram(&events);
        assert_eq!(hist.get("lint/proved"), Some(&3));
        result
    }

    #[test]
    fn injected_off_by_one_magic_is_lint_rejected() {
        let c = Compiler::builder()
            .lint(LintLevel::Default)
            .miscompile(Miscompile::MagicOffByOne)
            .build();
        for op in [
            c.udiv_const(7),
            c.sdiv_const(10),
            c.urem_const(3),
            c.srem_const(641),
        ] {
            match op {
                Err(Error::LintRejected { findings, .. }) => {
                    assert!(!findings.is_empty());
                }
                other => panic!("expected LintRejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn injected_dropped_shadd_is_lint_rejected() {
        let c = Compiler::builder()
            .lint(LintLevel::Default)
            .miscompile(Miscompile::DropShAdd)
            .build();
        for n in [10i64, 100, 625] {
            match c.mul_const(n) {
                Err(Error::LintRejected { op, findings }) => {
                    assert!(op.contains(&n.to_string()));
                    assert!(!findings.is_empty());
                }
                other => panic!("x * {n}: expected LintRejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn lint_off_lets_a_miscompile_through() {
        // The gate, not luck, is what catches the bug: with the lint off the
        // same mutated program compiles fine — and computes the wrong value.
        let c = Compiler::builder()
            .lint(LintLevel::Off)
            .miscompile(Miscompile::DropShAdd)
            .build();
        let op = c.mul_const(10).unwrap();
        assert_ne!(op.run_i32(7).unwrap(), 70);
    }

    #[test]
    fn batch_matches_singular_runs() {
        let c = Compiler::new();
        let op = c.udiv_const(7).unwrap();
        let inputs = [0u32, 1, 6, 7, 1000, u32::MAX];
        let batch = op.run_batch_u32(&inputs).unwrap();
        let mut cycles = 0;
        for (i, &x) in inputs.iter().enumerate() {
            assert_eq!(batch.values[i], op.run_u32(x).unwrap());
            cycles += op.cycles_for(x);
        }
        assert_eq!(batch.cycles, cycles);
        assert_eq!(batch.ops(), inputs.len());
        assert!(batch.rems.is_none());
    }
}
