//! Prepared programs: a program and its execution configuration, shared for
//! repeated execution.
//!
//! A [`PreparedProgram`] runs exactly the computation [`run`](crate::run)
//! does — the same loop over the same `step` semantics — so
//! the two cannot disagree on registers, PSW bits, cycle, executed,
//! nullified or taken-branch counts, or terminations. What it adds is
//! ownership: the program sits behind an [`Arc`] with its configuration, so
//! a cached routine is cloned to worker threads for a reference-count bump,
//! and a bare run (no stats, trace, profile or fault plan) records no
//! `execute` span. A program prepared with stats on also keeps its stats
//! region table (which region each instruction belongs to, and the labels)
//! behind an `Arc`, built once here, so each observed run only counts.
//!
//! # Example
//!
//! ```
//! use pa_isa::{ProgramBuilder, Reg};
//! use pa_sim::{run, ExecConfig, Machine, PreparedProgram};
//!
//! let mut b = ProgramBuilder::new();
//! b.sh2add(Reg::R26, Reg::R26, Reg::R28);
//! b.add(Reg::R28, Reg::R28, Reg::R28);
//! let p = b.build()?;
//!
//! let prepared = PreparedProgram::new(&p, ExecConfig::default());
//! let mut m = Machine::with_regs(&[(Reg::R26, 7)]);
//! let fast = prepared.run(&mut m);
//! assert_eq!(m.reg(Reg::R28), 70);
//!
//! let mut m2 = Machine::with_regs(&[(Reg::R26, 7)]);
//! let slow = run(&p, &mut m2, &ExecConfig::default());
//! assert_eq!(fast, slow);
//! assert_eq!(m, m2);
//! # Ok::<(), pa_isa::IsaError>(())
//! ```

use std::sync::Arc;

use pa_isa::Program;

use crate::exec::{execute, spanned, ExecConfig, RunResult};
use crate::stats::RegionTable;
use crate::Machine;

/// A program bundled with the execution configuration (overflow model,
/// watchdog, instrumentation switches, fault plan) it runs under.
///
/// Construct with [`PreparedProgram::new`], execute with
/// [`PreparedProgram::run`]. The source [`Program`] (and, with stats on,
/// its stats region table) sits behind an [`Arc`], so cloning a prepared
/// program is a reference-count bump plus a copy of the configuration:
/// `PreparedProgram` is `Send + Sync` and clones can be handed to worker
/// threads without copying code.
#[derive(Debug, Clone)]
pub struct PreparedProgram {
    program: Arc<Program>,
    config: ExecConfig,
    /// The stats region table, present when `config.stats` is on.
    regions: Option<Arc<RegionTable>>,
}

impl PreparedProgram {
    /// Prepares `program` to run under `config`.
    #[must_use]
    pub fn new(program: &Program, config: ExecConfig) -> PreparedProgram {
        let _span =
            telemetry::span::enter_with("prepare", || format!("{} instructions", program.len()));
        PreparedProgram {
            program: Arc::new(program.clone()),
            regions: config.stats.then(|| Arc::new(RegionTable::new(program))),
            config,
        }
    }

    /// The source program (labels intact).
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The execution configuration baked in at preparation time.
    #[must_use]
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.program.len()
    }

    /// Whether the program is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.program.is_empty()
    }

    /// Executes the prepared program on `machine`.
    ///
    /// The same computation as `run(self.program(), machine, self.config())`
    /// — including an armed [`FaultPlan`](crate::FaultPlan), which is acted
    /// on as [`crate::fault`] describes. A run observed through stats,
    /// trace or profile records the same `execute` span as
    /// [`run`](crate::run); any other run records none of its own, so the
    /// production path stays free of span bookkeeping.
    pub fn run(&self, machine: &mut Machine) -> RunResult {
        if self.config.observes_slots() {
            return spanned(|| {
                execute(
                    &self.program,
                    self.regions.as_deref(),
                    machine,
                    &self.config,
                )
            });
        }
        execute(&self.program, None, machine, &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OverflowModel;
    use pa_isa::{Cond, ProgramBuilder, Reg};

    #[test]
    fn instrumented_runs_carry_stats_and_profile() {
        let mut b = ProgramBuilder::new();
        b.ldi(3, Reg::R1);
        let top = b.here("top");
        b.addib(-1, Reg::R1, Cond::Ne, top);
        let p = b.build().unwrap();
        let prepared = PreparedProgram::new(&p, ExecConfig::default().with_stats().with_profile());
        let mut m = Machine::new();
        let r = prepared.run(&mut m);
        assert!(r.stats.is_some(), "observed run must carry stats");
        assert_eq!(r.profile, vec![1, 3]);
    }

    #[test]
    fn prepared_programs_share_code_across_clones_and_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PreparedProgram>();

        let mut b = ProgramBuilder::new();
        b.sh2add(Reg::R26, Reg::R26, Reg::R28);
        let p = b.build().unwrap();
        let prepared = PreparedProgram::new(&p, ExecConfig::default());
        let clone = prepared.clone();
        // Clones are reference-count bumps, not copies of the program.
        assert!(Arc::ptr_eq(&prepared.program, &clone.program));
        // And a clone runs fine on another thread.
        let handle = std::thread::spawn(move || {
            let mut m = Machine::with_regs(&[(Reg::R26, 7)]);
            clone.run(&mut m);
            m.reg(Reg::R28)
        });
        assert_eq!(handle.join().unwrap(), 35);
    }

    #[test]
    fn stats_prepared_clones_share_one_region_table() {
        let mut b = ProgramBuilder::new();
        b.ldi(3, Reg::R1);
        let top = b.here("top");
        b.addib(-1, Reg::R1, Cond::Ne, top);
        let p = b.build().unwrap();
        assert!(PreparedProgram::new(&p, ExecConfig::default())
            .regions
            .is_none());

        let prepared = PreparedProgram::new(&p, ExecConfig::default().with_stats());
        let clone = prepared.clone();
        let table = prepared.regions.as_ref().expect("stats on");
        assert!(Arc::ptr_eq(table, clone.regions.as_ref().unwrap()));
        let here = prepared.run(&mut Machine::new());
        let there = std::thread::spawn(move || clone.run(&mut Machine::new()))
            .join()
            .unwrap();
        assert_eq!(here, there);
        let stats = here.stats.as_deref().unwrap();
        let labels: Vec<&str> = stats.regions.iter().map(|r| &*r.label).collect();
        assert_eq!(labels, ["<entry>", "top"]);
        // A run's labels are the table's text, not copies of it.
        let there_stats = there.stats.as_deref().unwrap();
        for (mine, theirs) in stats.regions.iter().zip(&there_stats.regions) {
            assert!(Arc::ptr_eq(&mine.label, &theirs.label));
        }
    }

    #[test]
    fn accessors_expose_source_and_config() {
        let mut b = ProgramBuilder::new();
        b.nop();
        let p = b.build().unwrap();
        let prepared = PreparedProgram::new(&p, ExecConfig::precise());
        assert_eq!(prepared.len(), 1);
        assert!(!prepared.is_empty());
        assert_eq!(prepared.program().len(), 1);
        assert_eq!(prepared.config().overflow, OverflowModel::Precise);
    }
}
