//! The run-time facade: millicode calls with cycle accounting.

use std::num::NonZeroUsize;
use std::sync::Arc;

use millicode::{divvar, mulvar};
use pa_isa::Program;
use pa_sim::{ExecConfig, FaultPlan, OverflowModel, PreparedProgram};

use crate::engine::ParallelExecutor;
use crate::session::{BatchOutcome, RunOutcome, Session};
use crate::{Error, Result};

/// The divisor cutoff the runtime's §7 small-divisor dispatch is built with
/// by default (override with [`RuntimeBuilder::dispatch_limit`]).
pub const DISPATCH_LIMIT: u32 = 20;

/// The prepared routines a runtime executes, plus the execution
/// configuration they were prepared under. One `Routines` is built per
/// runtime and shared behind an `Arc` by the runtime itself, every
/// [`Session`], and every [`ParallelExecutor`] worker — handing a session
/// to another thread is a reference-count bump.
#[derive(Debug)]
pub(crate) struct Routines {
    pub mul_signed: PreparedProgram,
    pub mul_unsigned: PreparedProgram,
    pub udiv: PreparedProgram,
    pub sdiv: PreparedProgram,
    pub dispatch: PreparedProgram,
    pub dispatch_limit: u32,
    pub exec: ExecConfig,
}

/// Configures a [`Runtime`].
///
/// # Example
///
/// ```
/// use hppa_muldiv::Runtime;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let rt = Runtime::builder().dispatch_limit(12).workers(4).build()?;
/// assert_eq!(rt.div_dispatch(100, 7)?.value, 14);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RuntimeBuilder {
    overflow: OverflowModel,
    max_cycles: u64,
    stats: bool,
    dispatch_limit: u32,
    workers: usize,
    fault_plan: Option<FaultPlan>,
}

impl RuntimeBuilder {
    fn new() -> RuntimeBuilder {
        RuntimeBuilder {
            overflow: OverflowModel::default(),
            max_cycles: ExecConfig::default().max_cycles,
            stats: false,
            dispatch_limit: DISPATCH_LIMIT,
            workers: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            fault_plan: None,
        }
    }

    /// Overflow detector used when routines execute.
    #[must_use]
    pub fn overflow(mut self, model: OverflowModel) -> RuntimeBuilder {
        self.overflow = model;
        self
    }

    /// Watchdog budget per call.
    #[must_use]
    pub fn max_cycles(mut self, max_cycles: u64) -> RuntimeBuilder {
        self.max_cycles = max_cycles;
        self
    }

    /// Run every routine with simulator statistics on (runs take the
    /// simulator's instrumented loop). The statistics are collected but not
    /// returned: runtime, session and engine calls report values and cycles
    /// only, and drop each run's [`pa_sim::SimStats`].
    #[must_use]
    pub fn stats(mut self, stats: bool) -> RuntimeBuilder {
        self.stats = stats;
        self
    }

    /// Divisor cutoff for the §7 small-divisor dispatch table.
    #[must_use]
    pub fn dispatch_limit(mut self, limit: u32) -> RuntimeBuilder {
        self.dispatch_limit = limit;
        self
    }

    /// Logical workers the [`ParallelExecutor`] from [`Runtime::engine`]
    /// partitions batches across; a batch runs on at most this many
    /// threads. Defaults to the host's available parallelism. Zero is rejected by [`build`](RuntimeBuilder::build)
    /// with [`Error::InvalidConfig`].
    #[must_use]
    pub fn workers(mut self, workers: usize) -> RuntimeBuilder {
        self.workers = workers;
        self
    }

    /// Arms a deterministic fault-injection plan for chaos drills (see
    /// [`pa_sim::fault`]). Every routine call then runs under the plan —
    /// execution faults are injected and divergence-checked, a worker-kill
    /// plan panics its target worker inside the engine's isolation, and a
    /// shard-poison plan arms the engine's compile cache. `None` — the
    /// default — is the production setting and adds no per-call work beyond
    /// a single `Option` check.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> RuntimeBuilder {
        self.fault_plan = Some(plan);
        self
    }

    /// Builds all routines and prepares them for repeated execution.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when `workers` is zero;
    /// otherwise propagates `pa_isa` construction errors (a bug if it ever
    /// fires).
    pub fn build(self) -> Result<Runtime> {
        let workers = NonZeroUsize::new(self.workers)
            .ok_or(Error::InvalidConfig("workers must be non-zero"))?;
        let _span = telemetry::span::enter("build_routines");
        let config = ExecConfig {
            overflow: self.overflow,
            max_cycles: self.max_cycles,
            profile: false,
            trace: false,
            stats: self.stats,
            fault_plan: self.fault_plan,
        };
        let prepare = |p: Program, label: &str| {
            let prepared = PreparedProgram::new(&p, config.clone());
            telemetry::emit(|| telemetry::Event::Prepare {
                label: label.to_string(),
                len: prepared.len(),
            });
            prepared
        };
        let routines = Routines {
            mul_signed: prepare(mulvar::switched(true)?, "mul_signed"),
            mul_unsigned: prepare(mulvar::switched(false)?, "mul_unsigned"),
            udiv: prepare(divvar::udiv()?, "udiv"),
            sdiv: prepare(divvar::sdiv()?, "sdiv"),
            dispatch: prepare(
                divvar::small_dispatch(self.dispatch_limit)?,
                "udiv_dispatch",
            ),
            dispatch_limit: self.dispatch_limit,
            exec: config,
        };
        Ok(Runtime {
            routines: Arc::new(routines),
            workers,
        })
    }
}

/// The millicode library: multiply and divide run-time values on the
/// simulated machine, returning exact cycle counts.
///
/// Construction builds the routines once ([`mulvar::switched`],
/// [`divvar::udiv`], [`divvar::sdiv`], [`divvar::small_dispatch`]) and
/// prepares each as a [`PreparedProgram`]; calls are then cheap
/// simulator runs. For call-heavy workloads, open a [`Session`]
/// ([`Runtime::session`]) to also reuse one machine across calls; for
/// multi-core workloads, ask for a [`ParallelExecutor`]
/// ([`Runtime::engine`]).
///
/// `Runtime` is `Send + Sync` and cloning is cheap (the routines sit
/// behind an `Arc`), so one runtime can serve any number of threads, each
/// with its own session.
///
/// # Example
///
/// ```
/// use hppa_muldiv::Runtime;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let rt = Runtime::new()?;
/// let out = rt.div_unsigned(1000, 7)?;
/// assert_eq!((out.value, out.rem), (142, Some(6)));
/// assert!((68..=85).contains(&out.cycles)); // the paper's ≈80-cycle routine
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Runtime {
    routines: Arc<Routines>,
    workers: NonZeroUsize,
}

impl Runtime {
    /// Builds all routines with default knobs.
    ///
    /// # Errors
    ///
    /// Propagates `pa_isa` construction errors (a bug if it ever fires).
    pub fn new() -> Result<Runtime> {
        Runtime::builder().build()
    }

    /// Starts configuring a runtime.
    #[must_use]
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::new()
    }

    /// Opens a call session owning one reusable machine. Sessions share
    /// the runtime's routines by reference count, so they are `Send` and
    /// any number can be open at once — one per worker thread, say.
    #[must_use]
    pub fn session(&self) -> Session {
        Session::new(Arc::clone(&self.routines))
    }

    /// Builds a worker-pool executor over this runtime's routines, using
    /// the builder-configured [`workers`](RuntimeBuilder::workers). Each
    /// engine has a compile cache of its own.
    #[must_use]
    pub fn engine(&self) -> ParallelExecutor {
        ParallelExecutor::new(Arc::clone(&self.routines), self.workers)
    }

    /// The dispatch-table divisor cutoff this runtime was built with.
    #[must_use]
    pub fn dispatch_limit(&self) -> u32 {
        self.routines.dispatch_limit
    }

    /// Logical workers [`Runtime::engine`] will partition batches across.
    #[must_use]
    pub fn workers(&self) -> NonZeroUsize {
        self.workers
    }

    /// Signed multiply via the §6 switched algorithm (wrapping, like C on
    /// the real machine).
    ///
    /// # Errors
    ///
    /// Only simulator faults (never expected).
    pub fn mul(&self, x: i32, y: i32) -> Result<RunOutcome<i32>> {
        self.session().mul(x, y)
    }

    /// Unsigned multiply (wrapping).
    ///
    /// # Errors
    ///
    /// Only simulator faults (never expected).
    pub fn mul_unsigned(&self, x: u32, y: u32) -> Result<RunOutcome<u32>> {
        self.session().mul_unsigned(x, y)
    }

    /// Signed divide, truncating toward zero; `rem` carries the remainder.
    ///
    /// # Errors
    ///
    /// [`Error::DivideByZero`] for `y = 0`.
    pub fn div(&self, x: i32, y: i32) -> Result<RunOutcome<i32>> {
        self.session().div(x, y)
    }

    /// Unsigned divide via the general `DS`/`ADDC` routine; `rem` carries
    /// the remainder.
    ///
    /// # Errors
    ///
    /// [`Error::DivideByZero`] for `y = 0`.
    pub fn div_unsigned(&self, x: u32, y: u32) -> Result<RunOutcome<u32>> {
        self.session().div_unsigned(x, y)
    }

    /// Unsigned divide through the §7 small-divisor dispatch (quotient
    /// only).
    ///
    /// # Errors
    ///
    /// [`Error::DivideByZero`] for `y = 0`.
    pub fn div_dispatch(&self, x: u32, y: u32) -> Result<RunOutcome<u32>> {
        self.session().div_dispatch(x, y)
    }

    /// Multiplies every pair through one reused machine.
    ///
    /// # Errors
    ///
    /// Fails on the first pair that faults.
    pub fn mul_batch(&self, pairs: &[(i32, i32)]) -> Result<BatchOutcome<i32>> {
        self.session().mul_batch(pairs)
    }

    /// Divides every pair through the small-divisor dispatch with one
    /// reused machine.
    ///
    /// # Errors
    ///
    /// Fails on the first zero divisor.
    pub fn div_dispatch_batch(&self, pairs: &[(u32, u32)]) -> Result<BatchOutcome<u32>> {
        self.session().div_dispatch_batch(pairs)
    }

    /// The underlying routines, for inspection or disassembly.
    #[must_use]
    pub fn programs(&self) -> [(&'static str, &Program); 5] {
        [
            ("mul_signed", self.routines.mul_signed.program()),
            ("mul_unsigned", self.routines.mul_unsigned.program()),
            ("udiv", self.routines.udiv.program()),
            ("sdiv", self.routines.sdiv.program()),
            ("udiv_dispatch", self.routines.dispatch.program()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiply_and_count() {
        let rt = Runtime::new().unwrap();
        let out = rt.mul(-123, 456).unwrap();
        assert_eq!(out.value, -56088);
        assert!(out.rem.is_none());
        assert!(out.cycles < 45, "{} cycles", out.cycles);
        let out = rt.mul_unsigned(0xFFFF_FFFF, 2).unwrap();
        assert_eq!(out.value, 0xFFFF_FFFEu32);
    }

    #[test]
    fn divide_and_count() {
        let rt = Runtime::new().unwrap();
        let out = rt.div_unsigned(1000, 7).unwrap();
        assert_eq!((out.value, out.rem), (142, Some(6)));
        assert!((60..=90).contains(&out.cycles));
        let out = rt.div(-1000, 7).unwrap();
        assert_eq!((out.value, out.rem), (-142, Some(-6)));
    }

    #[test]
    fn dispatch_is_faster_for_small_divisors() {
        let rt = Runtime::new().unwrap();
        let fast = rt.div_dispatch(123_456, 7).unwrap();
        assert_eq!(fast.value, 123_456 / 7);
        let slow = rt.div_unsigned(123_456, 7).unwrap();
        assert!(
            fast.cycles < slow.cycles / 2,
            "dispatch {} vs general {}",
            fast.cycles,
            slow.cycles
        );
    }

    #[test]
    fn zero_divisor_reports() {
        let rt = Runtime::new().unwrap();
        assert_eq!(rt.div_unsigned(5, 0), Err(Error::DivideByZero));
        assert_eq!(rt.div(5, 0), Err(Error::DivideByZero));
        assert_eq!(rt.div_dispatch(5, 0), Err(Error::DivideByZero));
    }

    #[test]
    fn runtime_calls_emit_strategy_events() {
        let rt = Runtime::new().unwrap();
        let ((), events) = telemetry::collect(|| {
            rt.mul(-123, 456).unwrap();
            rt.mul_unsigned(7, 9).unwrap();
            rt.div_unsigned(1000, 7).unwrap();
            rt.div(-1000, 7).unwrap();
            rt.div_dispatch(100, 7).unwrap();
            let _ = rt.div_unsigned(5, 0); // failed calls record nothing
        });
        assert_eq!(events.len(), 5);
        for e in &events {
            let cycles = match e {
                telemetry::Event::MulStrategy { cycles, .. }
                | telemetry::Event::DivDispatch { cycles, .. } => *cycles,
                other => panic!("unexpected event {other:?}"),
            };
            assert!(cycles.unwrap() > 0);
        }
        let hist = telemetry::strategy_histogram(&events);
        assert_eq!(hist.get("mul/nibble-x2"), Some(&1)); // |−123| drives
        assert_eq!(hist.get("mul/nibble-x1"), Some(&1)); // 7 drives
        assert_eq!(hist.get("divvar/general"), Some(&2));
        assert_eq!(hist.get("divvar/inlined-body"), Some(&1));
    }

    #[test]
    fn builder_dispatch_limit_is_respected() {
        let rt = Runtime::builder().dispatch_limit(5).build().unwrap();
        assert_eq!(rt.dispatch_limit(), 5);
        assert_eq!(rt.div_dispatch(100, 3).unwrap().value, 33);
        // Divisors beyond the table fall to the general path but still
        // produce the right quotient.
        assert_eq!(rt.div_dispatch(100, 9).unwrap().value, 11);
    }

    #[test]
    fn builder_rejects_zero_workers() {
        assert_eq!(
            Runtime::builder().workers(0).build().unwrap_err(),
            Error::InvalidConfig("workers must be non-zero")
        );
        let rt = Runtime::builder().workers(3).build().unwrap();
        assert_eq!(rt.workers().get(), 3);
    }

    #[test]
    fn runtime_and_session_cross_thread_contracts_hold() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<Runtime>();
        assert_send::<crate::Session>();

        // Sessions opened from one shared runtime really do run on other
        // threads, concurrently, with per-call results intact.
        let rt = Runtime::new().unwrap();
        let serial = rt.mul(-123, 456).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let mut session = rt.session();
                scope.spawn(move || {
                    assert_eq!(session.mul(-123, 456).unwrap(), serial);
                });
            }
        });
    }

    #[test]
    fn construction_emits_prepare_events() {
        let (rt, events) = telemetry::collect(|| Runtime::new().unwrap());
        let hist = telemetry::strategy_histogram(&events);
        assert_eq!(hist.get("prepare/program"), Some(&5));
        drop(rt);
    }

    #[test]
    fn programs_are_inspectable() {
        let rt = Runtime::new().unwrap();
        for (name, p) in rt.programs() {
            assert!(!p.is_empty(), "{name}");
        }
    }
}
