//! Shared measurement helpers for the table generator and the Criterion
//! benches: cycle counting on the simulator, operand batches, and the
//! experiment definitions indexed in DESIGN.md.

#![forbid(unsafe_code)]

use pa_isa::{Program, Reg};
use pa_sim::{run_fn, ExecConfig, Machine, PreparedProgram, RunResult, SimStats};

/// Runs a two-operand millicode routine and returns its cycle count,
/// asserting completion.
#[must_use]
pub fn cycles2(p: &Program, a: u32, b: u32) -> u64 {
    let (_, stats) = run2(p, a, b);
    assert!(
        stats.termination.is_completed(),
        "{a}, {b}: {:?}",
        stats.termination
    );
    stats.cycles
}

/// Runs a two-operand routine, returning machine and stats.
#[must_use]
pub fn run2(p: &Program, a: u32, b: u32) -> (pa_sim::Machine, RunResult) {
    run_fn(p, &[(Reg::R26, a), (Reg::R25, b)], &ExecConfig::default())
}

/// Runs a two-operand routine with cycle-attribution stats enabled,
/// merging the run's [`SimStats`] into `agg`; returns the cycle count.
#[must_use]
pub fn cycles2_stats(p: &Program, a: u32, b: u32, agg: &mut SimStats) -> u64 {
    let (_, result) = run_fn(
        p,
        &[(Reg::R26, a), (Reg::R25, b)],
        &ExecConfig::default().with_stats(),
    );
    assert!(
        result.termination.is_completed(),
        "{a}, {b}: {:?}",
        result.termination
    );
    agg.merge(result.stats.as_deref().expect("stats enabled"));
    result.cycles
}

/// Prints a merged [`SimStats`] as the tables reports do: opcode histogram
/// first, then per-label cycle attribution.
pub fn print_stats(stats: &SimStats) {
    print!("per-opcode (executed):");
    for (op, n) in stats.per_opcode() {
        print!(" {op}:{n}");
    }
    println!();
    println!(
        "{:<20} {:>8} {:>9} {:>10}",
        "region", "cycles", "executed", "nullified"
    );
    for r in &stats.regions {
        println!(
            "{:<20} {:>8} {:>9} {:>10}",
            r.label, r.cycles, r.executed, r.nullified
        );
    }
}

/// A two-operand routine prepared once and replayed on one reused
/// machine — the hot path for table loops that run the same program over
/// thousands of operand pairs.
#[derive(Debug)]
pub struct PreparedBench {
    prepared: PreparedProgram,
    machine: Machine,
}

impl PreparedBench {
    /// Pre-decodes `p` under the default execution config (the same config
    /// [`cycles2`] runs with, so cycle counts are identical).
    #[must_use]
    pub fn new(p: &Program) -> PreparedBench {
        PreparedBench {
            prepared: PreparedProgram::new(p, ExecConfig::default()),
            machine: Machine::new(),
        }
    }

    /// Runs with `R26 = a`, `R25 = b`, returning `(R28, cycles)` and
    /// asserting completion.
    pub fn run(&mut self, a: u32, b: u32) -> (u32, u64) {
        self.machine.reset();
        self.machine.set_reg(Reg::R26, a);
        self.machine.set_reg(Reg::R25, b);
        let r = self.prepared.run(&mut self.machine);
        assert!(
            r.termination.is_completed(),
            "{a}, {b}: {:?}",
            r.termination
        );
        (self.machine.reg(Reg::R28), r.cycles)
    }

    /// The cycle count alone.
    pub fn cycles(&mut self, a: u32, b: u32) -> u64 {
        self.run(a, b).1
    }
}

/// Best/average/worst cycles of `p` over multiplier values in
/// `lo..=hi` (multiplicand fixed), sampling `samples` points. The program
/// is prepared once and replayed on one machine.
#[must_use]
pub fn cycle_band(p: &Program, lo: u32, hi: u32, multiplicand: u32, samples: u32) -> Band {
    let mut bench = PreparedBench::new(p);
    let mut best = u64::MAX;
    let mut worst = 0u64;
    let mut total = 0u64;
    let mut count = 0u64;
    let step = ((hi - lo) / samples).max(1);
    let mut x = lo;
    loop {
        let c = bench.cycles(x, multiplicand);
        best = best.min(c);
        worst = worst.max(c);
        total += c;
        count += 1;
        match x.checked_add(step) {
            Some(next) if next <= hi => x = next,
            _ => break,
        }
    }
    Band {
        best,
        average: total as f64 / count as f64,
        worst,
    }
}

/// A best/average/worst cycle triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// Minimum observed cycles.
    pub best: u64,
    /// Mean observed cycles.
    pub average: f64,
    /// Maximum observed cycles.
    pub worst: u64,
}

impl core::fmt::Display for Band {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{:>4} {:>6.1} {:>5}",
            self.best, self.average, self.worst
        )
    }
}

/// Prints a section header in the table reports.
pub fn section(id: &str, title: &str) {
    println!();
    println!("================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;
    use millicode::mulvar;

    #[test]
    fn prepared_bench_matches_cycles2() {
        let p = mulvar::switched(true).unwrap();
        let mut bench = PreparedBench::new(&p);
        for (a, b) in [(0u32, 0u32), (1, 60_000), (46340, 46340), (12345, 678)] {
            let (value, cycles) = bench.run(a, b);
            let (machine, stats) = run2(&p, a, b);
            assert_eq!(value, machine.reg(Reg::R28), "{a} * {b}");
            assert_eq!(cycles, stats.cycles, "{a} * {b}");
            assert_eq!(cycles, cycles2(&p, a, b), "{a} * {b}");
        }
    }
}
