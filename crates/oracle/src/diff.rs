//! The differential runner: every case through four computations.
//!
//! For each [`Case`] the verifier runs
//!
//! 1. the **interpreter** ([`pa_sim::run_fn`]) on the compiled program
//!    or millicode routine, observed (stats, trace and profile on), so it
//!    takes the run loop's instrumented instantiation and its records must
//!    account for every slot,
//! 2. the **prepared program** (`PreparedProgram::run`, bare: the
//!    uninstrumented instantiation every production run takes),
//! 3. a **batched session** — cases accumulate per family and flush
//!    through the cached batch APIs with one reused machine, and
//! 4. the **reference oracle** ([`crate::reference`] /
//!    [`crate::magic`]),
//!
//! and demands value, remainder, trap, and cycle agreement everywhere,
//! plus conformance to the per-strategy cycle budgets. Divergences are
//! recorded with their replayable case, and the first one is shrunk to a
//! minimal counterexample.

use std::collections::BTreeMap;

use hppa_muldiv::{CompiledOp, Compiler, Error, Runtime, DISPATCH_LIMIT};
use millicode::divvar::DIV_ZERO_BREAK;
use pa_isa::{Program, Reg};
use pa_sim::{run_fn, ExecConfig, Machine, RunResult, SimStats, Termination, TrapKind};

use crate::budget::{BudgetViolation, Budgets};
use crate::fuzz::{shrink, Case, CaseGen};
use crate::magic::RefMagic;
use crate::reference;

/// Batch flush threshold: large enough that a flush genuinely reuses
/// one machine across many unlike operands, small enough to attribute
/// failures tightly.
const BATCH: usize = 32;

/// Cap on *recorded* divergences (they keep being counted past it).
const RECORD_LIMIT: usize = 200;

/// A deliberate fault, for proving the harness catches what it claims
/// to catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// The oracle's expectation for odd constant divisors is computed
    /// from a scratch [`RefMagic`] whose multiplier is off by one — the
    /// exact bug class the §7 algebra invites.
    MagicOffByOne,
}

/// One disagreement between paths (or between a path and the oracle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The replayable case.
    pub case: Case,
    /// Which comparison failed (`"interpreter-vs-oracle"`, …).
    pub paths: &'static str,
    /// Human-readable detail (observed vs expected).
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.paths, self.case, self.detail)
    }
}

/// The outcome of a verification run.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Cases checked (each runs every applicable path).
    pub cases_run: u64,
    /// Total divergences observed (may exceed `divergences.len()`).
    pub divergence_count: u64,
    /// Recorded divergences, in discovery order.
    pub divergences: Vec<Divergence>,
    /// Cycle-budget violations.
    pub budget_violations: Vec<BudgetViolation>,
    /// Worst observed cycles per budget key (for tuning the TOML).
    pub max_cycles: BTreeMap<String, u64>,
    /// Checked-multiply constants whose trapping chain cannot be built
    /// (a documented capability gap, not a divergence).
    pub skipped_unsupported: u64,
    /// The first divergence shrunk to a local minimum, when any.
    pub shrunk: Option<Case>,
}

impl VerifyReport {
    /// Whether the run was fully clean.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.divergence_count == 0 && self.budget_violations.is_empty()
    }
}

/// What the oracle says a case must do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expected {
    /// Complete with this value (and remainder, where the routine
    /// yields one). Stored as raw 32-bit patterns.
    Val { value: u32, rem: Option<u32> },
    /// Trap with the divide-by-zero BREAK.
    DivZero,
    /// Trap with the overflow condition.
    Overflow,
}

/// What a simulated path actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Observed {
    Val { value: u32, rem: Option<u32> },
    DivZero,
    Overflow,
    Other,
}

impl Observed {
    fn matches(&self, e: &Expected) -> bool {
        match (self, e) {
            (Observed::Val { value, rem }, Expected::Val { value: ev, rem: er }) => {
                value == ev && (er.is_none() || rem == er)
            }
            (Observed::DivZero, Expected::DivZero) | (Observed::Overflow, Expected::Overflow) => {
                true
            }
            _ => false,
        }
    }
}

fn describe(o: &Observed) -> String {
    match o {
        Observed::Val { value, rem: None } => format!("value {value:#x}"),
        Observed::Val {
            value,
            rem: Some(r),
        } => format!("value {value:#x} rem {r:#x}"),
        Observed::DivZero => "divide-by-zero trap".to_string(),
        Observed::Overflow => "overflow trap".to_string(),
        Observed::Other => "incomplete run".to_string(),
    }
}

fn describe_expected(e: &Expected) -> String {
    match e {
        Expected::Val { value, rem: None } => format!("value {value:#x}"),
        Expected::Val {
            value,
            rem: Some(r),
        } => format!("value {value:#x} rem {r:#x}"),
        Expected::DivZero => "divide-by-zero trap".to_string(),
        Expected::Overflow => "overflow trap".to_string(),
    }
}

/// An element waiting in a constant-op batch buffer.
#[derive(Debug, Clone)]
struct ConstItem {
    x: u32,
    expect: u32,
    cycles: u64,
    case: Case,
}

/// An element waiting in a variable-op batch buffer.
#[derive(Debug, Clone)]
struct VarItem {
    x: u32,
    y: u32,
    expect: u32,
    rem: Option<u32>,
    cycles: u64,
    case: Case,
}

/// The differential verifier. Construct once, feed cases (generated,
/// swept, or replayed), then [`Verifier::finish`] for the report.
#[derive(Debug)]
pub struct Verifier {
    compiler: Compiler,
    runtime: Runtime,
    exec: ExecConfig,
    budgets: Budgets,
    inject: Option<Inject>,
    const_batches: BTreeMap<String, (Case, Vec<ConstItem>)>,
    mul_buf: Vec<VarItem>,
    mulu_buf: Vec<VarItem>,
    udiv_buf: Vec<VarItem>,
    sdiv_buf: Vec<VarItem>,
    dispatch_buf: Vec<VarItem>,
    report: VerifyReport,
}

impl Verifier {
    /// Builds the implementation stack the verifier drives.
    ///
    /// # Errors
    ///
    /// Propagates millicode construction failures (a bug if it fires).
    pub fn new(budgets: Budgets, inject: Option<Inject>) -> Result<Verifier, Error> {
        Ok(Verifier {
            compiler: Compiler::builder().cache_capacity(4096).build(),
            runtime: Runtime::new()?,
            exec: ExecConfig::default()
                .with_stats()
                .with_trace()
                .with_profile(),
            budgets,
            inject,
            const_batches: BTreeMap::new(),
            mul_buf: Vec::new(),
            mulu_buf: Vec::new(),
            udiv_buf: Vec::new(),
            sdiv_buf: Vec::new(),
            dispatch_buf: Vec::new(),
            report: VerifyReport::default(),
        })
    }

    /// Runs `cases` generated cases from `seed`.
    pub fn run_fuzz(&mut self, seed: u64, cases: u64) {
        let _span =
            telemetry::span::enter_with("verify_fuzz", || format!("seed {seed:#x}, {cases} cases"));
        let mut generator = CaseGen::new(seed);
        for _ in 0..cases {
            let case = generator.next_case();
            self.check_case(&case);
        }
    }

    /// Sweeps the 16-bit constants with the given stride (1 = all of
    /// them) through boundary operands, as constant divides and
    /// multiplies.
    pub fn run_sweep(&mut self, stride: u32) {
        let _span = telemetry::span::enter_with("verify_sweep", || format!("stride {stride}"));
        let stride = stride.max(1);
        let mut c = 1u32;
        while c <= u16::MAX as u32 {
            let y = c;
            let xs = [
                0,
                1,
                y - 1,
                y,
                y + 1,
                (u32::MAX / y) * y - 1,
                (u32::MAX / y) * y,
                u32::MAX,
            ];
            for x in xs {
                self.check_case(&Case::UdivConst { y, x });
            }
            for x in [0i32, 1, -1, 46_341, i32::MAX, i32::MIN] {
                self.check_case(&Case::MulConst {
                    n: i64::from(c),
                    x,
                    checked: false,
                });
            }
            // Flush while this constant's op is still hot in the compile
            // cache; deferring to finish() would recompile every divisor
            // a second time (~80ms each across the 16-bit range).
            self.flush_all();
            c = c.saturating_add(stride);
        }
    }

    /// Flushes pending batches and closes out the report, shrinking the
    /// first divergence (if any) to a minimal replayable case.
    #[must_use]
    pub fn finish(mut self) -> VerifyReport {
        self.flush_all();
        if let Some(first) = self.report.divergences.first().cloned() {
            let _span = telemetry::span::enter("shrink");
            self.report.shrunk = Some(shrink(first.case, |c| self.single_case_fails(c)));
        }
        self.report
    }

    /// Read access to the accumulating report (final only after
    /// [`Verifier::finish`]).
    #[must_use]
    pub fn report(&self) -> &VerifyReport {
        &self.report
    }

    /// The oracle's verdict for one case.
    fn expect(&self, case: &Case) -> Option<Expected> {
        Some(match *case {
            Case::MulConst { n, x, checked } => {
                let n32 = i32::try_from(n).ok()?;
                match (checked, reference::mul_checked_chain(x, n32)) {
                    (true, None) => Expected::Overflow,
                    (_, Some(v)) => Expected::Val {
                        value: v as u32,
                        rem: None,
                    },
                    (false, None) => Expected::Val {
                        value: reference::mul_wrapping_i32(x, n32) as u32,
                        rem: None,
                    },
                }
            }
            Case::UdivConst { y, x } => {
                let value = if self.inject == Some(Inject::MagicOffByOne) && y >= 3 && y & 1 == 1 {
                    // The deliberate fault: a scratch magic constant one
                    // too high stands in for the honest reference.
                    RefMagic::minimal(y)?
                        .with_multiplier_off_by_one()
                        .evaluate(x)
                } else {
                    reference::udiv(x, y)?
                };
                Expected::Val { value, rem: None }
            }
            Case::SdivConst { y, x } => Expected::Val {
                value: reference::sdiv_trunc(x, y)?.0 as u32,
                rem: None,
            },
            Case::UremConst { y, x } => Expected::Val {
                value: reference::urem(x, y)?,
                rem: None,
            },
            Case::SremConst { y, x } => Expected::Val {
                value: reference::sdiv_trunc(x, y)?.1 as u32,
                rem: None,
            },
            Case::MulVar { x, y } => Expected::Val {
                value: reference::mul_wrapping_i32(x, y) as u32,
                rem: None,
            },
            Case::MulVarUnsigned { x, y } => Expected::Val {
                value: reference::mul_wrapping_u32(x, y),
                rem: None,
            },
            Case::DivVar { x, y } => match reference::div_restoring(x, y) {
                None => Expected::DivZero,
                Some((q, r)) => Expected::Val {
                    value: q,
                    rem: Some(r),
                },
            },
            Case::SdivVar { x, y } => match reference::sdiv_trunc(x, y) {
                None => Expected::DivZero,
                Some((q, r)) => Expected::Val {
                    value: q as u32,
                    rem: Some(r as u32),
                },
            },
            Case::DivDispatch { x, y } => match reference::udiv(x, y) {
                None => Expected::DivZero,
                Some(q) => Expected::Val {
                    value: q,
                    rem: None,
                },
            },
        })
    }

    /// The `section.key` a case's cycles are budgeted under.
    fn budget_key(&self, case: &Case) -> &'static str {
        match *case {
            Case::MulConst { checked: false, .. } => "mul_const.wrapping",
            Case::MulConst { checked: true, .. } => "mul_const.checked",
            Case::UdivConst { .. } => "div_const.unsigned",
            Case::SdivConst { .. } => "div_const.signed",
            Case::UremConst { .. } => "rem_const.unsigned",
            Case::SremConst { .. } => "rem_const.signed",
            Case::MulVar { .. } | Case::MulVarUnsigned { .. } => "mul_var.switched",
            Case::DivVar { .. } => "div_var.general_unsigned",
            Case::SdivVar { .. } => "div_var.general_signed",
            Case::DivDispatch { y, .. } => {
                if (1..DISPATCH_LIMIT).contains(&y) {
                    "div_var.dispatch_small"
                } else {
                    "div_var.dispatch_large"
                }
            }
        }
    }

    /// Records a divergence when the observed interpreter run's stats,
    /// trace or profile miss a slot the run counted.
    fn check_records(&mut self, case: &Case, r: &RunResult) {
        if !accounts_for_every_slot(r) {
            self.record(
                case,
                "interpreter-records",
                format!(
                    "{} cycles and {} executed, but stats count {:?}, the trace {} and the profile {}",
                    r.cycles,
                    r.executed,
                    r.stats.as_deref().map(SimStats::executed_total),
                    r.trace.len(),
                    r.profile.iter().sum::<u64>()
                ),
            );
        }
    }

    fn record(&mut self, case: &Case, paths: &'static str, detail: String) {
        self.report.divergence_count += 1;
        telemetry::emit(|| telemetry::Event::Verify {
            suite: "divergence",
            case: case.to_json().to_compact_string(),
            detail: format!("[{paths}] {detail}"),
        });
        if self.report.divergences.len() < RECORD_LIMIT {
            self.report.divergences.push(Divergence {
                case: *case,
                paths,
                detail,
            });
        }
    }

    fn note_cycles(&mut self, case: &Case, cycles: u64) {
        let key = self.budget_key(case);
        let worst = self.report.max_cycles.entry(key.to_string()).or_insert(0);
        *worst = (*worst).max(cycles);
        if let Some(v) = self.budgets.check(key, cycles, &case.to_string()) {
            telemetry::emit(|| telemetry::Event::Verify {
                suite: "budget",
                case: case.to_json().to_compact_string(),
                detail: v.to_string(),
            });
            self.report.budget_violations.push(v);
        }
    }

    /// Runs one case through every applicable path, enqueueing the
    /// batched-session leg.
    pub fn check_case(&mut self, case: &Case) {
        self.report.cases_run += 1;
        let Some(expected) = self.expect(case) else {
            self.record(case, "oracle", "oracle cannot model this case".to_string());
            return;
        };
        match case {
            Case::MulConst { .. }
            | Case::UdivConst { .. }
            | Case::SdivConst { .. }
            | Case::UremConst { .. }
            | Case::SremConst { .. } => self.check_const_case(case, expected),
            _ => self.check_var_case(case, expected),
        }
    }

    fn compile(&self, case: &Case) -> Option<Result<CompiledOp, Error>> {
        Some(match *case {
            Case::MulConst {
                n, checked: false, ..
            } => self.compiler.mul_const(n),
            Case::MulConst {
                n, checked: true, ..
            } => self.compiler.mul_const_checked(n),
            Case::UdivConst { y, .. } => self.compiler.udiv_const(y),
            Case::SdivConst { y, .. } => self.compiler.sdiv_const(y),
            Case::UremConst { y, .. } => self.compiler.urem_const(y),
            Case::SremConst { y, .. } => self.compiler.srem_const(y),
            _ => return None,
        })
    }

    fn check_const_case(&mut self, case: &Case, expected: Expected) {
        let x = match *case {
            Case::MulConst { x, .. } | Case::SdivConst { x, .. } | Case::SremConst { x, .. } => {
                x as u32
            }
            Case::UdivConst { x, .. } | Case::UremConst { x, .. } => x,
            _ => unreachable!("var cases go through check_var_case"),
        };
        let op = match self.compile(case).expect("const case compiles") {
            Ok(op) => op,
            Err(_) if matches!(case, Case::MulConst { checked: true, .. }) => {
                // Not every constant has a trapping-capable chain; the
                // capability gap is documented, not a divergence.
                self.report.skipped_unsupported += 1;
                return;
            }
            Err(e) => {
                self.record(case, "compile", format!("compilation failed: {e}"));
                return;
            }
        };

        // Independent magic cross-check: both derivations must agree on
        // the Figure 6 parameters before we even run the code.
        if let Case::UdivConst { y, .. } = *case {
            if y >= 3 && y & 1 == 1 && self.inject.is_none() {
                self.cross_check_magic(case, y);
            }
        }

        // Path 1: the interpreter.
        let (m, r) = run_fn(op.program(), &[(Reg::R26, x)], &self.exec);
        self.check_records(case, &r);
        let obs_interp = observe(&r.termination, m.reg(Reg::R28), None);
        // Path 2: the bare prepared run.
        let mut fast = Machine::with_regs(&[(Reg::R26, x)]);
        let rf = op.prepared().run(&mut fast);
        let obs_fast = observe(&rf.termination, fast.reg(Reg::R28), None);

        if obs_interp != obs_fast || r.cycles != rf.cycles {
            self.record(
                case,
                "interpreter-vs-prepared",
                format!(
                    "interpreter {} in {} cycles, prepared {} in {} cycles",
                    describe(&obs_interp),
                    r.cycles,
                    describe(&obs_fast),
                    rf.cycles
                ),
            );
        }
        if !obs_interp.matches(&expected) {
            self.record(
                case,
                "interpreter-vs-oracle",
                format!(
                    "interpreter {}, oracle expects {}",
                    describe(&obs_interp),
                    describe_expected(&expected)
                ),
            );
        }
        if r.termination.is_completed() {
            self.note_cycles(case, r.cycles);
        }

        // Path 3: the batched compiled op, flushed per kind.
        match expected {
            Expected::Val { value, .. } => {
                let key = format!("{}", op.kind());
                let entry = self
                    .const_batches
                    .entry(key)
                    .or_insert_with(|| (*case, Vec::new()));
                entry.1.push(ConstItem {
                    x,
                    expect: value,
                    cycles: r.cycles,
                    case: *case,
                });
                if entry.1.len() >= BATCH {
                    let (probe, items) = self
                        .const_batches
                        .remove(&format!("{}", op.kind()))
                        .unwrap();
                    self.flush_const_batch(&probe, &items);
                }
            }
            Expected::Overflow => {
                // Trap cases exercise the batch path as singletons: the
                // batch API must surface the trap as an error.
                match op.run_batch_u32(&[x]) {
                    Err(Error::Trapped(TrapKind::Overflow)) => {}
                    other => self.record(
                        case,
                        "batch-vs-oracle",
                        format!("singleton batch returned {other:?}, oracle expects overflow trap"),
                    ),
                }
            }
            Expected::DivZero => {
                // Constant divides by zero are compile-time errors and
                // never reach here (the generator keeps y >= 1).
            }
        }
    }

    fn cross_check_magic(&mut self, case: &Case, y: u32) {
        match (RefMagic::minimal(y), divconst::Magic::minimal(y)) {
            (Some(ours), Ok(theirs)) => {
                if (ours.s(), ours.a(), ours.r()) != (theirs.s(), theirs.a(), theirs.r()) {
                    self.record(
                        case,
                        "magic-derivation",
                        format!(
                            "oracle derives (s={}, a={:#x}, r={}), divconst derives (s={}, a={:#x}, r={})",
                            ours.s(),
                            ours.a(),
                            ours.r(),
                            theirs.s(),
                            theirs.a(),
                            theirs.r()
                        ),
                    );
                }
            }
            (ours, theirs) => {
                self.record(
                    case,
                    "magic-derivation",
                    format!(
                        "derivation availability differs: oracle {ours:?}, divconst {theirs:?}"
                    ),
                );
            }
        }
    }

    fn flush_const_batch(&mut self, probe: &Case, items: &[ConstItem]) {
        let op = match self.compile(probe).expect("const case compiles") {
            Ok(op) => op,
            Err(e) => {
                self.record(probe, "compile", format!("batch recompilation failed: {e}"));
                return;
            }
        };
        let xs: Vec<u32> = items.iter().map(|i| i.x).collect();
        match op.run_batch_u32(&xs) {
            Ok(batch) => {
                for (i, item) in items.iter().enumerate() {
                    if batch.values[i] != item.expect {
                        self.record(
                            &item.case,
                            "batch-vs-oracle",
                            format!(
                                "batch element {} returned {:#x}, oracle expects {:#x}",
                                i, batch.values[i], item.expect
                            ),
                        );
                    }
                }
                let total: u64 = items.iter().map(|i| i.cycles).sum();
                if batch.cycles != total {
                    self.record(
                        probe,
                        "batch-cycles",
                        format!(
                            "batch of {} spent {} cycles, per-call paths spent {}",
                            items.len(),
                            batch.cycles,
                            total
                        ),
                    );
                }
            }
            Err(e) => self.record(probe, "batch-vs-oracle", format!("batch failed: {e}")),
        }
    }

    fn routine(&self, case: &Case) -> &Program {
        let name = match case {
            Case::MulVar { .. } => "mul_signed",
            Case::MulVarUnsigned { .. } => "mul_unsigned",
            Case::DivVar { .. } => "udiv",
            Case::SdivVar { .. } => "sdiv",
            Case::DivDispatch { .. } => "udiv_dispatch",
            _ => unreachable!("const cases go through check_const_case"),
        };
        self.runtime
            .programs()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, p)| *p)
            .expect("runtime exposes all five routines")
    }

    fn check_var_case(&mut self, case: &Case, expected: Expected) {
        let (x, y, wants_rem) = match *case {
            Case::MulVar { x, y } => (x as u32, y as u32, false),
            Case::MulVarUnsigned { x, y } => (x, y, false),
            Case::DivVar { x, y } => (x, y, true),
            Case::SdivVar { x, y } => (x as u32, y as u32, true),
            Case::DivDispatch { x, y } => (x, y, false),
            _ => unreachable!("const cases go through check_const_case"),
        };

        // Path 1: the interpreter on the raw millicode routine.
        let (m, r) = run_fn(
            self.routine(case),
            &[(Reg::R26, x), (Reg::R25, y)],
            &self.exec,
        );
        self.check_records(case, &r);
        let rem = wants_rem.then(|| m.reg(Reg::R29));
        let obs_interp = observe(&r.termination, m.reg(Reg::R28), rem);

        // Path 2: the per-call facade (fresh session, prepared program).
        let (obs_call, cycles_call) = self.observe_runtime_call(case);

        if obs_interp != obs_call || (r.termination.is_completed() && r.cycles != cycles_call) {
            self.record(
                case,
                "interpreter-vs-prepared",
                format!(
                    "interpreter {} in {} cycles, runtime call {} in {} cycles",
                    describe(&obs_interp),
                    r.cycles,
                    describe(&obs_call),
                    cycles_call
                ),
            );
        }
        if !obs_interp.matches(&expected) {
            self.record(
                case,
                "interpreter-vs-oracle",
                format!(
                    "interpreter {}, oracle expects {}",
                    describe(&obs_interp),
                    describe_expected(&expected)
                ),
            );
        }
        if r.termination.is_completed() {
            self.note_cycles(case, r.cycles);
        }

        // Path 3: the batched session.
        match expected {
            Expected::Val { value, rem } => {
                let item = VarItem {
                    x,
                    y,
                    expect: value,
                    rem,
                    cycles: r.cycles,
                    case: *case,
                };
                match case {
                    Case::MulVar { .. } => push_flush(&mut self.mul_buf, item, |items| {
                        Verifier::flush_var(&self.runtime, &mut self.report, items, VarFamily::Mul)
                    }),
                    Case::MulVarUnsigned { .. } => push_flush(&mut self.mulu_buf, item, |items| {
                        Verifier::flush_var(&self.runtime, &mut self.report, items, VarFamily::MulU)
                    }),
                    Case::DivVar { .. } => push_flush(&mut self.udiv_buf, item, |items| {
                        Verifier::flush_var(&self.runtime, &mut self.report, items, VarFamily::Udiv)
                    }),
                    Case::SdivVar { .. } => push_flush(&mut self.sdiv_buf, item, |items| {
                        Verifier::flush_var(&self.runtime, &mut self.report, items, VarFamily::Sdiv)
                    }),
                    Case::DivDispatch { .. } => push_flush(&mut self.dispatch_buf, item, |items| {
                        Verifier::flush_var(
                            &self.runtime,
                            &mut self.report,
                            items,
                            VarFamily::Dispatch,
                        )
                    }),
                    _ => unreachable!(),
                }
            }
            Expected::DivZero => {
                // Trap cases exercise the batched session as singletons.
                let outcome = match case {
                    Case::DivVar { .. } => {
                        self.runtime.session().div_unsigned_batch(&[(x, y)]).err()
                    }
                    Case::SdivVar { .. } => self.runtime.div(x as i32, y as i32).err(),
                    Case::DivDispatch { .. } => self.runtime.div_dispatch_batch(&[(x, y)]).err(),
                    _ => unreachable!("multiplies never expect a divide trap"),
                };
                if outcome != Some(Error::DivideByZero) {
                    self.record(
                        case,
                        "batch-vs-oracle",
                        format!(
                            "singleton batch returned {outcome:?}, oracle expects divide-by-zero"
                        ),
                    );
                }
            }
            Expected::Overflow => unreachable!("var cases never expect overflow"),
        }
    }

    /// One facade call (fresh session) observed through the public API.
    fn observe_runtime_call(&self, case: &Case) -> (Observed, u64) {
        let fold_i32 = |r: Result<hppa_muldiv::RunOutcome<i32>, Error>| match r {
            Ok(out) => (
                Observed::Val {
                    value: out.value as u32,
                    rem: out.rem.map(|v| v as u32),
                },
                out.cycles,
            ),
            Err(e) => (observe_err(&e), 0),
        };
        let fold_u32 = |r: Result<hppa_muldiv::RunOutcome<u32>, Error>| match r {
            Ok(out) => (
                Observed::Val {
                    value: out.value,
                    rem: out.rem,
                },
                out.cycles,
            ),
            Err(e) => (observe_err(&e), 0),
        };
        match *case {
            Case::MulVar { x, y } => fold_i32(self.runtime.mul(x, y)),
            Case::MulVarUnsigned { x, y } => fold_u32(self.runtime.mul_unsigned(x, y)),
            Case::DivVar { x, y } => fold_u32(self.runtime.div_unsigned(x, y)),
            Case::SdivVar { x, y } => fold_i32(self.runtime.div(x, y)),
            Case::DivDispatch { x, y } => fold_u32(self.runtime.div_dispatch(x, y)),
            _ => unreachable!("const cases go through check_const_case"),
        }
    }

    fn flush_var(
        runtime: &Runtime,
        report: &mut VerifyReport,
        items: &[VarItem],
        family: VarFamily,
    ) {
        if items.is_empty() {
            return;
        }
        let mut session = runtime.session();
        let (values, rems, cycles) = match family {
            VarFamily::Mul => {
                let pairs: Vec<(i32, i32)> =
                    items.iter().map(|i| (i.x as i32, i.y as i32)).collect();
                match session.mul_batch(&pairs) {
                    Ok(b) => (
                        b.values.iter().map(|&v| v as u32).collect::<Vec<u32>>(),
                        None,
                        b.cycles,
                    ),
                    Err(e) => {
                        record_batch_error(report, &items[0].case, &e);
                        return;
                    }
                }
            }
            VarFamily::MulU => {
                // No unsigned batch method exists; one persistent session
                // looping calls is the same reused-machine path.
                let mut values = Vec::with_capacity(items.len());
                let mut cycles = 0u64;
                for i in items {
                    match session.mul_unsigned(i.x, i.y) {
                        Ok(out) => {
                            values.push(out.value);
                            cycles += out.cycles;
                        }
                        Err(e) => {
                            record_batch_error(report, &i.case, &e);
                            return;
                        }
                    }
                }
                (values, None, cycles)
            }
            VarFamily::Udiv => {
                let pairs: Vec<(u32, u32)> = items.iter().map(|i| (i.x, i.y)).collect();
                match session.div_unsigned_batch(&pairs) {
                    Ok(b) => {
                        let rems = b.rems.clone();
                        (b.values, rems, b.cycles)
                    }
                    Err(e) => {
                        record_batch_error(report, &items[0].case, &e);
                        return;
                    }
                }
            }
            VarFamily::Sdiv => {
                // Likewise: signed division batches through one session.
                let mut values = Vec::with_capacity(items.len());
                let mut rems = Vec::with_capacity(items.len());
                let mut cycles = 0u64;
                for i in items {
                    match session.div(i.x as i32, i.y as i32) {
                        Ok(out) => {
                            values.push(out.value as u32);
                            rems.push(out.rem.expect("sdiv yields a remainder") as u32);
                            cycles += out.cycles;
                        }
                        Err(e) => {
                            record_batch_error(report, &i.case, &e);
                            return;
                        }
                    }
                }
                (values, Some(rems), cycles)
            }
            VarFamily::Dispatch => {
                let pairs: Vec<(u32, u32)> = items.iter().map(|i| (i.x, i.y)).collect();
                match session.div_dispatch_batch(&pairs) {
                    Ok(b) => (b.values, None, b.cycles),
                    Err(e) => {
                        record_batch_error(report, &items[0].case, &e);
                        return;
                    }
                }
            }
        };
        for (i, item) in items.iter().enumerate() {
            if values[i] != item.expect {
                push_divergence(
                    report,
                    &item.case,
                    "batch-vs-oracle",
                    format!(
                        "batch element {} returned {:#x}, oracle expects {:#x}",
                        i, values[i], item.expect
                    ),
                );
            }
            if let (Some(rems), Some(er)) = (&rems, item.rem) {
                if rems[i] != er {
                    push_divergence(
                        report,
                        &item.case,
                        "batch-vs-oracle",
                        format!(
                            "batch element {} remainder {:#x}, oracle expects {:#x}",
                            i, rems[i], er
                        ),
                    );
                }
            }
        }
        let total: u64 = items.iter().map(|i| i.cycles).sum();
        if cycles != total {
            push_divergence(
                report,
                &items[0].case,
                "batch-cycles",
                format!(
                    "batch of {} spent {cycles} cycles, per-call paths spent {total}",
                    items.len()
                ),
            );
        }
    }

    /// Flushes every pending batch buffer.
    pub fn flush_all(&mut self) {
        let pending: Vec<(Case, Vec<ConstItem>)> = std::mem::take(&mut self.const_batches)
            .into_values()
            .collect();
        for (probe, items) in &pending {
            self.flush_const_batch(probe, items);
        }
        for (buf, family) in [
            (std::mem::take(&mut self.mul_buf), VarFamily::Mul),
            (std::mem::take(&mut self.mulu_buf), VarFamily::MulU),
            (std::mem::take(&mut self.udiv_buf), VarFamily::Udiv),
            (std::mem::take(&mut self.sdiv_buf), VarFamily::Sdiv),
            (std::mem::take(&mut self.dispatch_buf), VarFamily::Dispatch),
        ] {
            Verifier::flush_var(&self.runtime, &mut self.report, &buf, family);
        }
    }

    /// Whether a single case, run through every path right now (batch
    /// leg as a singleton), shows any divergence — the shrinker's
    /// predicate.
    fn single_case_fails(&self, case: &Case) -> bool {
        let Some(expected) = self.expect(case) else {
            return true;
        };
        match case {
            Case::MulConst { .. }
            | Case::UdivConst { .. }
            | Case::SdivConst { .. }
            | Case::UremConst { .. }
            | Case::SremConst { .. } => {
                let x = match *case {
                    Case::MulConst { x, .. }
                    | Case::SdivConst { x, .. }
                    | Case::SremConst { x, .. } => x as u32,
                    Case::UdivConst { x, .. } | Case::UremConst { x, .. } => x,
                    _ => unreachable!(),
                };
                let Some(Ok(op)) = self.compile(case) else {
                    return false; // unsupported, not failing
                };
                let (m, r) = run_fn(op.program(), &[(Reg::R26, x)], &self.exec);
                let obs = observe(&r.termination, m.reg(Reg::R28), None);
                !obs.matches(&expected) || !accounts_for_every_slot(&r)
            }
            _ => {
                let (obs, _) = self.observe_runtime_call(case);
                !obs.matches(&expected)
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum VarFamily {
    Mul,
    MulU,
    Udiv,
    Sdiv,
    Dispatch,
}

/// Whether an observed run's stats, trace and profile account for every
/// slot it ran.
fn accounts_for_every_slot(r: &RunResult) -> bool {
    r.stats
        .as_deref()
        .is_some_and(|s| s.executed_total() == r.executed)
        && r.trace.len() as u64 == r.cycles
        && r.profile.iter().sum::<u64>() == r.executed
}

fn observe(termination: &Termination, value: u32, rem: Option<u32>) -> Observed {
    match termination {
        Termination::Completed => Observed::Val { value, rem },
        Termination::Trapped(t) if t.kind == TrapKind::Break(DIV_ZERO_BREAK) => Observed::DivZero,
        Termination::Trapped(t) if t.kind == TrapKind::Overflow => Observed::Overflow,
        _ => Observed::Other,
    }
}

fn observe_err(e: &Error) -> Observed {
    match e {
        Error::DivideByZero => Observed::DivZero,
        Error::Trapped(TrapKind::Overflow) => Observed::Overflow,
        _ => Observed::Other,
    }
}

fn push_flush(buf: &mut Vec<VarItem>, item: VarItem, flush: impl FnOnce(&[VarItem])) {
    buf.push(item);
    if buf.len() >= BATCH {
        let items = std::mem::take(buf);
        flush(&items);
    }
}

fn push_divergence(report: &mut VerifyReport, case: &Case, paths: &'static str, detail: String) {
    report.divergence_count += 1;
    telemetry::emit(|| telemetry::Event::Verify {
        suite: "divergence",
        case: case.to_json().to_compact_string(),
        detail: format!("[{paths}] {detail}"),
    });
    if report.divergences.len() < RECORD_LIMIT {
        report.divergences.push(Divergence {
            case: *case,
            paths,
            detail,
        });
    }
}

fn record_batch_error(report: &mut VerifyReport, case: &Case, e: &Error) {
    push_divergence(
        report,
        case,
        "batch-vs-oracle",
        format!("batch failed unexpectedly: {e}"),
    );
}
