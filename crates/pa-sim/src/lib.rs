//! # pa-sim — cycle-accounting simulator for the `pa-isa` instruction set
//!
//! Executes [`pa_isa::Program`]s on a model of the HP Precision Architecture
//! core that the ASPLOS'87 multiply/divide paper assumes:
//!
//! * 32 general registers with `r0` hardwired to zero;
//! * a PSW **carry/borrow** bit (set by adds and subtracts, consumed by
//!   `ADDC`/`SUBB` and `DS`) and the **V bit** driven by the divide step;
//! * **conditional nullification**: `COMCLR`/`COMICLR` skip the following
//!   instruction (the skipped slot still costs its cycle, as on the real
//!   pipeline);
//! * **traps** on signed overflow for the `O`-suffixed instructions, with a
//!   choice between a precise 35-bit reference model and the paper's *cheap
//!   sign-comparison circuit* (see [`OverflowModel`]);
//! * every instruction costs one cycle — the paper's unit of account.
//!
//! The simulator reports rich [`RunResult`] statistics (dynamic instruction
//! count, nullified slots, taken branches, a per-instruction execution
//! profile) so the paper's dynamic-path figures can be regenerated exactly.
//!
//! Each opcode is defined once, by the reference interpreter's step
//! function, and every execution runs through one loop over the program's
//! instructions: [`run`], [`PreparedProgram::run`], runs observed through
//! [`SimStats`], traces or profiles, and [`fault`] drills. The loop is
//! compiled twice — a bare instantiation with no per-slot instrumentation
//! code, which every production run takes, and an instrumented one — so
//! observing a run never changes the executor, and cycle counts come from
//! one place.
//!
//! ## Example
//!
//! ```
//! use pa_isa::{ProgramBuilder, Reg};
//! use pa_sim::{ExecConfig, Machine, run};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // r28 = 10 * r26 via the paper's two-instruction chain.
//! let mut b = ProgramBuilder::new();
//! b.sh2add(Reg::R26, Reg::R26, Reg::R28);
//! b.add(Reg::R28, Reg::R28, Reg::R28);
//! let p = b.build()?;
//!
//! let mut m = Machine::new();
//! m.set_reg(Reg::R26, 7);
//! let result = run(&p, &mut m, &ExecConfig::default());
//! assert!(result.termination.is_completed());
//! assert_eq!(m.reg(Reg::R28), 70);
//! assert_eq!(result.cycles, 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exec;
pub mod fault;
mod machine;
mod overflow;
mod prepared;
mod stats;

pub use exec::{
    format_trace, run, run_fn, ExecConfig, Fault, RunResult, Termination, TraceEntry, Trap,
    TrapKind,
};
pub use fault::FaultPlan;
pub use machine::Machine;
pub use overflow::{cheap_circuit_overflow, precise_overflow, OverflowModel};
pub use prepared::PreparedProgram;
pub use stats::{RegionCycles, SimStats};
