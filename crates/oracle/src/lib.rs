//! # oracle — differential verification for the muldiv stack
//!
//! Everything in this workspace that computes a product or a quotient is
//! checked here against implementations that share **no code** with the
//! production pipeline:
//!
//! * [`mod@reference`] — a bit-serial schoolbook multiplier and a 32-step
//!   restoring divider (plus signed wrappers with the same
//!   truncate-toward-zero, `i32::MIN / -1`-wraps semantics the millicode
//!   implements). No native `*`, `/` or `%` touches an operand.
//! * [`magic`] — the §7 derived-method constants recomputed from first
//!   principles with bit-by-bit long division, including an exact
//!   correctness bound proved in the module docs rather than inherited
//!   from `divconst`.
//! * [`fuzz`] — a deterministic, seed-reproducible structured case
//!   generator spanning every strategy tier (constant multiply chains,
//!   magic divides, millicode dispatch, signed/unsigned, trap and
//!   non-trap), with a greedy shrinker that reduces a failing case to a
//!   minimal replayable JSON line.
//! * [`budget`] — the paper's cycle envelopes (Tables 1–3 and the
//!   per-section counts) as a checked-in TOML table, asserted per case.
//! * [`diff`] — the [`Verifier`] that runs each case through the
//!   observed interpreter, the bare prepared run, and a batched session, compares
//!   all three against the oracle, checks cycle budgets, and shrinks the
//!   first divergence.
//!
//! The `hppa verify` subcommand in `crates/tools` drives this crate; see
//! `docs/VERIFICATION.md` for the replay workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod diff;
pub mod fuzz;
pub mod magic;
pub mod reference;

pub use budget::{BudgetParseError, BudgetViolation, Budgets};
pub use diff::{Divergence, Inject, Verifier, VerifyReport};
pub use fuzz::{shrink, Case, CaseGen};
pub use magic::RefMagic;
