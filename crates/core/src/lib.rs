//! # hppa-muldiv — integer multiplication and division on the HP Precision
//! Architecture
//!
//! A full reproduction of Magenheimer, Peters, Pettis & Zuras, *"Integer
//! Multiplication and Division on the HP Precision Architecture"*
//! (ASPLOS 1987), as a usable Rust library:
//!
//! * [`Compiler`] — what the compiler back end does: turn `x * c`, `x / c`
//!   and `x % c` into straight-line shift-and-add / derived-method code
//!   (§5, §7), with optional overflow trapping. Compiled programs are
//!   prepared for the simulator and memoised in a bounded,
//!   strategy-keyed cache: compiling the same constant twice searches once;
//! * [`Runtime`] — what the millicode library does: multiply and divide
//!   values unknown until run time (§6's switched algorithm, §4's
//!   `DS`/`ADDC` divide), reporting exact cycle counts from the bundled
//!   simulator. Open a [`Session`] to replay operand batches through one
//!   reusable machine, or a [`ParallelExecutor`] ([`Runtime::engine`]) to
//!   partition batches across a worker pool with bit-identical results;
//! * [`analysis`] — the distribution-weighted summaries of §8 ("the average
//!   multiply requires about six cycles and the average divide takes about
//!   40");
//! * one [`Error`] type (and [`Result`] alias) across the whole façade;
//! * re-exports of every substrate crate (`isa`, `sim`, `chains`, …) for
//!   users who want the pieces.
//!
//! ## Quickstart
//!
//! ```
//! use hppa_muldiv::{Compiler, Runtime};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let compiler = Compiler::new();
//! let times10 = compiler.mul_const(10)?;
//! assert_eq!(times10.cycles(), 2); // the paper's §5 example
//! assert_eq!(times10.run_i32(7)?, 70);
//! // Batches reuse one machine; compiling 10 again is a cache hit.
//! let batch = compiler.mul_const(10)?.run_batch_u32(&[1, 2, 3])?;
//! assert_eq!(batch.values, vec![10, 20, 30]);
//!
//! let div3 = compiler.udiv_const(3)?;
//! assert_eq!(div3.cycles(), 17); // Figure 7
//! assert_eq!(div3.run_u32(100)?, 33);
//!
//! let rt = Runtime::new()?;
//! let out = rt.mul(-123, 456)?;
//! assert_eq!(out.value, -56088);
//! assert!(out.cycles < 40);
//! let division = rt.div_unsigned(1000, 7)?;
//! assert_eq!((division.value, division.rem), (142, Some(6)));
//!
//! // Hot loops: a session owns one reusable machine.
//! let mut session = rt.session();
//! let products = session.mul_batch(&[(3, 4), (-5, 6)])?;
//! assert_eq!(products.values, vec![12, -30]);
//!
//! // Multi-core: an engine partitions batches across worker threads.
//! // Results are bit-identical to the serial batch for any worker count.
//! let engine = rt.engine();
//! let parallel = engine.mul_batch(&[(3, 4), (-5, 6)])?;
//! assert_eq!(parallel, products);
//! # Ok(())
//! # }
//! ```
//!
//! ## Configuration
//!
//! The scattered knobs live on builders:
//!
//! ```
//! use hppa_muldiv::{Compiler, Runtime, sim::OverflowModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let compiler = Compiler::builder()
//!     .overflow(OverflowModel::Precise)
//!     .trapping_mul(true)     // mul_const compiles Pascal-flavor chains
//!     .cache_capacity(64)  // one exact LRU of 64 compiled ops
//!     .build();
//! assert!(compiler.mul_const(5)?.run_i32(i32::MAX).is_err()); // traps
//!
//! let rt = Runtime::builder()
//!     .dispatch_limit(12)
//!     .workers(4)        // ParallelExecutor pool size
//!     .build()?;
//! assert_eq!(rt.div_dispatch(100, 7)?.value, 14);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod cache;
mod compiler;
mod engine;
mod error;
mod runtime;
mod session;
pub mod strength;

pub use cache::CacheShardStats;
pub use compiler::{
    default_lint_level, CompiledOp, Compiler, CompilerBuilder, CompilerError, OpKind,
};
pub use divconst::Signedness;
pub use engine::ParallelExecutor;
pub use error::{Error, Result};
pub use pa_lint::LintLevel;
pub use pa_sim::FaultPlan;
pub use runtime::{Runtime, RuntimeBuilder, DISPATCH_LIMIT};
pub use session::{BatchOutcome, RunOutcome, Session};

// The substrate crates, re-exported under stable names.
pub use addchain as chains;
pub use baselines;
pub use divconst;
pub use millicode;
pub use mulconst;
pub use operand_dist;
pub use pa_isa as isa;
pub use pa_lint as lint;
pub use pa_sim as sim;
pub use telemetry;
