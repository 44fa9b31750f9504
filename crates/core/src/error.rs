//! One error type for the whole façade.
//!
//! Each substrate crate keeps its own precise error enum (`IsaError`,
//! `ChainError`, `CodegenError`, …), but the façade methods all return
//! [`crate::Result`] so callers handle a single type. `From` impls lift
//! every substrate error — and the legacy [`CompilerError`] shim type —
//! into [`Error`].
//!
//! [`CompilerError`]: crate::CompilerError

use core::fmt;

use addchain::ChainError;
use divconst::{DivCodegenError, MagicError};
use mulconst::CodegenError;
use pa_isa::IsaError;
use pa_sim::TrapKind;

/// `Result` with the façade's unified [`Error`].
pub type Result<T> = core::result::Result<T, Error>;

/// Any failure the `hppa_muldiv` façade can report.
///
/// # Example
///
/// ```
/// use hppa_muldiv::{Compiler, Error};
///
/// let c = Compiler::new();
/// assert!(matches!(c.udiv_const(0), Err(Error::DivideByZero)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// Program construction failed in `pa-isa`.
    Isa(IsaError),
    /// An addition chain failed validation.
    Chain(ChainError),
    /// Constant-multiply codegen failed.
    MulCodegen(CodegenError),
    /// Constant-divide codegen failed (other than a zero divisor).
    DivCodegen(DivCodegenError),
    /// Magic-number derivation failed.
    Magic(MagicError),
    /// Division by zero — at compile time (`udiv_const(0)`) or at run time
    /// (the millicode `BREAK`).
    DivideByZero,
    /// The simulated code trapped (overflow or an unexpected `BREAK`).
    Trapped(TrapKind),
    /// The simulated code did not run to completion (watchdog).
    DidNotComplete,
    /// A builder was given an invalid knob value (for example
    /// `RuntimeBuilder::workers(0)`); the message names the knob.
    InvalidConfig(&'static str),
    /// An engine worker panicked mid-batch. A worker is a logical one: the
    /// engine's chunk of that index, whether it ran on a spawned thread or
    /// on the calling thread. The batch is abandoned with this typed error
    /// — never a hung join or a torn, partially merged result. In practice
    /// only an armed [`FaultPlan`](pa_sim::FaultPlan) worker-kill drill
    /// produces this; the isolation also contains any future real panic.
    WorkerPanicked {
        /// Index of the logical worker that died (equal to `chunk` in this
        /// engine — batches are split into one contiguous chunk per
        /// worker, in order).
        worker: usize,
        /// Index of the chunk it was executing.
        chunk: usize,
    },
    /// An injected fault corrupted execution and the divergence detector
    /// (the `pa_sim::fault` machine check) caught it: the result would
    /// have been silently wrong, so it is discarded and this typed error
    /// surfaces instead.
    FaultDetected,
    /// The machine-code linter rejected a freshly compiled program: either
    /// a structural rule fired or the abstract interpreter could not prove
    /// the routine computes its claim (see `pa_lint` and `docs/ANALYSIS.md`).
    /// On by default in debug builds; configured with
    /// [`CompilerBuilder::lint`](crate::CompilerBuilder::lint).
    LintRejected {
        /// Display form of the operation that was being compiled.
        op: String,
        /// The typed findings, in catalog order.
        findings: Vec<pa_lint::Finding>,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Isa(e) => write!(f, "isa: {e}"),
            Error::Chain(e) => write!(f, "addition chain: {e}"),
            Error::MulCodegen(e) => write!(f, "multiply codegen: {e}"),
            Error::DivCodegen(e) => write!(f, "divide codegen: {e}"),
            Error::Magic(e) => write!(f, "magic derivation: {e}"),
            Error::DivideByZero => write!(f, "division by zero"),
            Error::Trapped(TrapKind::Overflow) => write!(f, "overflow trap"),
            Error::Trapped(TrapKind::Break(code)) => write!(f, "break trap (code {code})"),
            Error::DidNotComplete => write!(f, "execution did not complete"),
            Error::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
            Error::WorkerPanicked { worker, chunk } => {
                write!(
                    f,
                    "engine worker {worker} panicked while running chunk {chunk}"
                )
            }
            Error::FaultDetected => {
                write!(
                    f,
                    "injected fault detected by divergence check; result discarded"
                )
            }
            Error::LintRejected { op, findings } => {
                write!(f, "lint rejected {op}: {} finding(s)", findings.len())?;
                for finding in findings {
                    write!(f, "\n  {finding}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Isa(e) => Some(e),
            Error::Chain(e) => Some(e),
            Error::MulCodegen(e) => Some(e),
            Error::DivCodegen(e) => Some(e),
            Error::Magic(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IsaError> for Error {
    fn from(e: IsaError) -> Error {
        Error::Isa(e)
    }
}

impl From<ChainError> for Error {
    fn from(e: ChainError) -> Error {
        Error::Chain(e)
    }
}

impl From<CodegenError> for Error {
    fn from(e: CodegenError) -> Error {
        Error::MulCodegen(e)
    }
}

impl From<DivCodegenError> for Error {
    fn from(e: DivCodegenError) -> Error {
        // A zero divisor is the caller-facing condition, not a codegen
        // internals detail; fold it into the unified variant.
        match e {
            DivCodegenError::ZeroDivisor => Error::DivideByZero,
            other => Error::DivCodegen(other),
        }
    }
}

impl From<MagicError> for Error {
    fn from(e: MagicError) -> Error {
        Error::Magic(e)
    }
}

impl From<crate::CompilerError> for Error {
    fn from(e: crate::CompilerError) -> Error {
        match e {
            crate::CompilerError::Mul(inner) => inner.into(),
            crate::CompilerError::Div(inner) => inner.into(),
            crate::CompilerError::Trapped(kind) => Error::Trapped(kind),
            crate::CompilerError::DidNotComplete => Error::DidNotComplete,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_divisor_folds_into_divide_by_zero() {
        let e: Error = DivCodegenError::ZeroDivisor.into();
        assert_eq!(e, Error::DivideByZero);
        let e: Error = DivCodegenError::RegisterConflict.into();
        assert!(matches!(e, Error::DivCodegen(_)));
    }

    #[test]
    fn displays_are_informative() {
        assert_eq!(Error::DivideByZero.to_string(), "division by zero");
        assert_eq!(
            Error::Trapped(TrapKind::Overflow).to_string(),
            "overflow trap"
        );
        let e: Error = CodegenError::NotOverflowSafe.into();
        assert!(e.to_string().starts_with("multiply codegen:"));
        assert_eq!(
            Error::InvalidConfig("workers must be non-zero").to_string(),
            "invalid configuration: workers must be non-zero"
        );
        assert_eq!(
            Error::WorkerPanicked {
                worker: 2,
                chunk: 2
            }
            .to_string(),
            "engine worker 2 panicked while running chunk 2"
        );
        assert_eq!(
            Error::FaultDetected.to_string(),
            "injected fault detected by divergence check; result discarded"
        );
        let rejected = Error::LintRejected {
            op: "x * 10".to_string(),
            findings: vec![],
        };
        assert_eq!(rejected.to_string(), "lint rejected x * 10: 0 finding(s)");
    }

    #[test]
    fn sources_chain_to_the_substrate_error() {
        use std::error::Error as _;
        let e: Error = CodegenError::NotOverflowSafe.into();
        assert!(e.source().is_some());
        assert!(Error::DivideByZero.source().is_none());
    }
}
